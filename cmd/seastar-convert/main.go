// Command seastar-convert writes a graph + features + labels to the
// page-aligned on-disk store format (internal/store, DESIGN.md §16)
// that seastar-train -graph-store memory-maps for out-of-core training:
//
//	seastar-convert -dataset reddit -scale 0.5 -o reddit.sgs
//	seastar-convert -zipf 100000,16,1.1 -feat-dim 64 -classes 16 -o big.sgs
//	seastar-convert -check big.sgs          # validate + fingerprint an existing file
//
// -dataset converts one of the paper's synthetic datasets (same
// generator and seed semantics as the rest of the tools, so the stored
// content is reproducible from the command line alone); -zipf writes a
// power-law graph of any size. -verify reopens the written file and
// re-hashes every payload byte against the header fingerprint.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"seastar/internal/datasets"
	"seastar/internal/graph"
	"seastar/internal/store"
	"seastar/internal/tensor"
)

func main() {
	dataset := flag.String("dataset", "", "dataset name to convert (see seastar-train -list)")
	scale := flag.Float64("scale", 0, "dataset instantiation scale (0 = default)")
	seed := flag.Int64("seed", 1, "generation seed (recorded content depends on it)")
	zipf := flag.String("zipf", "", "synthesize a Zipf graph instead: n,avgDeg,alpha (e.g. 100000,16,1.1)")
	featDim := flag.Int("feat-dim", 64, "zipf: feature dimensionality (0 = structure-only store)")
	classes := flag.Int("classes", 16, "zipf: label class count")
	out := flag.String("o", "", "output store file (required unless -check)")
	verify := flag.Bool("verify", true, "reopen the written file and verify the content fingerprint")
	check := flag.String("check", "", "validate an existing store file and print its header, then exit")
	flag.Parse()

	if *check != "" {
		if err := runCheck(*check); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		fatal(fmt.Errorf("-o is required"))
	}
	if (*dataset == "") == (*zipf == "") {
		fatal(fmt.Errorf("exactly one of -dataset or -zipf must be set"))
	}

	var src *store.Source
	var err error
	if *dataset != "" {
		src, err = fromDataset(*dataset, *scale, *seed)
	} else {
		src, err = fromZipf(*zipf, *featDim, *classes, *seed)
	}
	if err != nil {
		fatal(err)
	}
	if err := store.WriteFile(*out, src); err != nil {
		fatal(err)
	}
	st, err := store.Open(*out)
	if err != nil {
		fatal(fmt.Errorf("reopen just-written store: %w", err))
	}
	defer st.Close()
	fmt.Printf("%s: N=%d, M=%d, d=%d, %d classes, %.1f MB (fingerprint %#x)\n",
		*out, st.N(), st.M(), st.FeatDim(), st.NumClasses(),
		float64(st.Bytes())/(1<<20), st.Fingerprint())
	if *verify {
		if err := st.VerifyFingerprint(); err != nil {
			fatal(err)
		}
		if err := st.Graph().Validate(); err != nil {
			fatal(err)
		}
		fmt.Println("verify: content fingerprint and graph structure OK")
	}
}

func fromDataset(name string, scale float64, seed int64) (*store.Source, error) {
	if scale == 0 {
		scale = datasets.DefaultScale(name)
	}
	ds, err := datasets.Load(name, scale, seed)
	if err != nil {
		return nil, err
	}
	return &store.Source{G: ds.G, Feat: ds.Feat, Labels: ds.Labels, NumClasses: ds.NumClasses}, nil
}

func fromZipf(spec string, featDim, classes int, seed int64) (*store.Source, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -zipf %q, want n,avgDeg,alpha", spec)
	}
	n, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	avg, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	alpha, err3 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err1 != nil || err2 != nil || err3 != nil || n < 2 || avg < 1 {
		return nil, fmt.Errorf("bad -zipf %q, want n,avgDeg,alpha", spec)
	}
	// Vertex and edge ids are int32: refuse what would wrap before anything
	// is allocated. ZipfDegree draws n·avgDeg edges plus at most n/2 from
	// rounding each vertex's degree; the bound is checked by division so it
	// cannot overflow itself.
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("-zipf n=%d exceeds the int32 vertex-id limit %d", n, math.MaxInt32)
	}
	if avg > (math.MaxInt32-n/2)/n {
		return nil, fmt.Errorf("-zipf n=%d with avgDeg=%d exceeds the int32 edge-id limit %d", n, avg, math.MaxInt32)
	}
	if featDim < 0 || classes < 1 {
		return nil, fmt.Errorf("-feat-dim must be >= 0 and -classes >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.ZipfDegree(rng, n, avg, alpha)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return &store.Source{
		G:          g,
		Feat:       tensor.Randn(rng, 1, n, featDim),
		Labels:     labels,
		NumClasses: classes,
	}, nil
}

func runCheck(path string) error {
	st, err := store.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("%s: N=%d, M=%d, d=%d, %d classes, %.1f MB (fingerprint %#x)\n",
		path, st.N(), st.M(), st.FeatDim(), st.NumClasses(),
		float64(st.Bytes())/(1<<20), st.Fingerprint())
	if err := st.VerifyFingerprint(); err != nil {
		return err
	}
	if err := st.Graph().Validate(); err != nil {
		return err
	}
	fmt.Println("check: content fingerprint and graph structure OK")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seastar-convert:", err)
	os.Exit(1)
}

// Package datasets synthesizes the twelve datasets of the paper's Table 2.
// The real datasets are not shipped with this reproduction; instead each
// is generated to match the statistics the experiments actually exercise:
// vertex and edge counts, feature width, class count, relation count, and
// degree skew (power-law for the social/co-purchase graphs, near-uniform
// for the citation graphs).
//
// Large graphs can be generated at a reduced Scale: vertex and edge counts
// shrink proportionally (average degree is preserved) and the device
// simulator extrapolates time and memory by 1/Scale, so figure shapes and
// OOM thresholds survive scaling (see DESIGN.md).
package datasets

import (
	"fmt"
	"math/rand"

	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// Dataset is one benchmark graph with features, labels and masks.
type Dataset struct {
	Name string
	G    *graph.Graph
	// Feat is the [N, F] input feature matrix.
	Feat *tensor.Tensor
	// Labels and the split masks drive node-classification training.
	Labels     []int
	NumClasses int
	TrainMask  []bool
	ValMask    []bool
	TestMask   []bool
	// NumRelations > 1 marks a heterogeneous dataset.
	NumRelations int
	// Scale is the instantiated fraction of the paper-scale graph.
	Scale float64
	// PaperN / PaperM are the full-scale counts from Table 2.
	PaperN, PaperM int
}

// spec describes a Table 2 row.
type spec struct {
	n, m      int
	feat      int
	classes   int
	relations int
	powerLaw  bool
}

// Table2 reproduces the paper's dataset table.
var table2 = map[string]spec{
	"cora":       {2709, 10556, 1433, 7, 1, false},
	"citeseer":   {3328, 9228, 3703, 6, 1, false},
	"pubmed":     {19718, 88651, 500, 3, 1, false},
	"corafull":   {19794, 130622, 8710, 70, 1, false},
	"ca_cs":      {18334, 327576, 6805, 15, 1, false},
	"ca_physics": {34494, 991848, 8415, 5, 1, false},
	"amz_photo":  {7651, 287326, 745, 8, 1, true},
	"amz_comp":   {13753, 574418, 767, 10, 1, true},
	"reddit":     {198021, 84120742, 602, 41, 1, true},
	"aifb":       {8285, 58086, 16, 4, 90, false},
	"mutag":      {23644, 148454, 16, 2, 46, false},
	"bgs":        {333845, 1832398, 16, 2, 206, true},
}

// Homogeneous lists the 9 single-relation datasets in the paper's order.
func Homogeneous() []string {
	return []string{"cora", "citeseer", "pubmed", "corafull", "ca_cs",
		"ca_physics", "amz_photo", "amz_comp", "reddit"}
}

// Heterogeneous lists the 3 multi-relation datasets.
func Heterogeneous() []string { return []string{"aifb", "mutag", "bgs"} }

// Names lists every dataset.
func Names() []string { return append(Homogeneous(), Heterogeneous()...) }

// DefaultScale returns the instantiation fraction used by the benchmark
// harness: large graphs are generated smaller and extrapolated.
func DefaultScale(name string) float64 {
	switch name {
	case "reddit":
		return 1.0 / 16
	case "bgs":
		return 0.5
	case "ca_physics":
		return 0.5
	default:
		return 1
	}
}

// Stats returns the full-scale Table 2 row for a dataset name.
func Stats(name string) (n, m, feat, relations int, err error) {
	s, ok := table2[name]
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("datasets: unknown dataset %q", name)
	}
	return s.n, s.m, s.feat, s.relations, nil
}

// Load generates a dataset by name at the given scale with a fixed seed
// (the same seed always yields the same dataset). The graph structure and
// the features/labels/masks are drawn from independent deterministic
// streams so that a structure loaded from the cache (LoadCached) pairs
// with identical data.
func Load(name string, scale float64, seed int64) (*Dataset, error) {
	s, ok := table2[name]
	if !ok {
		return nil, fmt.Errorf("datasets: unknown dataset %q", name)
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("datasets: scale %v out of (0,1]", scale)
	}
	rng := rand.New(rand.NewSource(seed))

	n := int(float64(s.n) * scale)
	if n < 16 {
		n = 16
	}
	m := int(float64(s.m) * scale)

	var srcs, dsts []int32
	if s.powerLaw {
		epv := m / n
		if epv < 1 {
			epv = 1
		}
		srcs, dsts = graph.PowerLawEdges(rng, n, epv)
	} else {
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		srcs, dsts = graph.GNMEdges(rng, n, m)
	}
	var types []int32 // drawn after the edges, one per edge of the list
	if s.relations > 1 {
		types = graph.RandomTypes(rng, len(srcs), s.relations)
	}
	g, err := graph.FromTypedEdges(n, srcs, dsts, types, s.relations)
	if err != nil {
		return nil, err
	}
	return finishDataset(name, g, scale, seed)
}

// finishDataset derives features, labels and masks (from a data-stream
// seed independent of the structure stream) and applies the hetero
// edge-type sort.
func finishDataset(name string, g *graph.Graph, scale float64, seed int64) (*Dataset, error) {
	s := table2[name]
	if s.relations > 1 {
		if err := g.SortEdgesByType(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	d := &Dataset{
		Name:         name,
		G:            g,
		Feat:         tensor.Randn(rng, 1, g.N, s.feat),
		Labels:       make([]int, g.N),
		NumClasses:   s.classes,
		NumRelations: s.relations,
		Scale:        scale,
		PaperN:       s.n,
		PaperM:       s.m,
	}
	for i := range d.Labels {
		d.Labels[i] = rng.Intn(s.classes)
	}
	d.TrainMask, d.ValMask, d.TestMask = splitMasks(rng, g.N)
	return d, nil
}

// MustLoad is Load for tests and tooling with vetted names.
func MustLoad(name string, scale float64, seed int64) *Dataset {
	d, err := Load(name, scale, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// splitMasks assigns 10% train / 10% validation / 80% test.
func splitMasks(rng *rand.Rand, n int) (train, val, test []bool) {
	train = make([]bool, n)
	val = make([]bool, n)
	test = make([]bool, n)
	perm := rng.Perm(n)
	nTrain := n / 10
	if nTrain < 1 {
		nTrain = 1
	}
	nVal := n / 10
	for i, p := range perm {
		switch {
		case i < nTrain:
			train[p] = true
		case i < nTrain+nVal:
			val[p] = true
		default:
			test[p] = true
		}
	}
	return train, val, test
}

// RGCNEdgeNorm returns the per-edge 1/c_{v,r} normalizer of the R-GCN
// formula: the reciprocal of the number of in-edges of v with the same
// relation type as the edge.
func RGCNEdgeNorm(g *graph.Graph) *tensor.Tensor {
	t := tensor.New(g.M, 1)
	counts := make(map[int64]int32)
	key := func(v int32, r int32) int64 { return int64(v)<<32 | int64(r) }
	for e := 0; e < g.M; e++ {
		counts[key(g.Dsts[e], g.EdgeTypes[e])]++
	}
	for e := 0; e < g.M; e++ {
		c := counts[key(g.Dsts[e], g.EdgeTypes[e])]
		t.Set(e, 0, 1/float32(c))
	}
	return t
}

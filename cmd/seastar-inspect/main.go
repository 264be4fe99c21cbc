// Command seastar-inspect is EXPLAIN / EXPLAIN ANALYZE for compiled
// vertex-centric programs: what the Seastar compiler does with a UDF, and
// where a run actually spends its time.
//
// Default (EXPLAIN): the traced forward GIR with graph types, the
// auto-differentiated backward GIR, and the execution units produced by
// the seastar fusion FSM (the Figure-6 boxes), each annotated with its
// kernel's materializations and specialization decision:
//
//	seastar-inspect -model gat
//	seastar-inspect -model rgcn -relations 46 -in 16 -hidden 16
//
// -dot renders the same thing as Graphviz (one digraph per pass, fused
// units as clusters, graph types on every tensor):
//
//	seastar-inspect -model gat -dot -pass fwd | dot -Tsvg > gat_fwd.svg
//
// -analyze (EXPLAIN ANALYZE) runs the program — forward and backward —
// on a synthetic Zipf graph or a named dataset's topology and attributes
// the measured wall time, allocations and kernel counters to execution
// units via the obs registry:
//
//	seastar-inspect -model gat -analyze
//	seastar-inspect -model gcn -analyze -dataset cora -json profile.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"seastar/internal/exec"
)

func main() {
	model := flag.String("model", "gat", "gcn|gat|appnp|rgcn")
	in := flag.Int("in", 16, "input feature width")
	hidden := flag.Int("hidden", 16, "output width of the inspected layer")
	relations := flag.Int("relations", 4, "relation count (rgcn)")
	dot := flag.Bool("dot", false, "emit Graphviz instead of text")
	pass := flag.String("pass", "all", "which pass to render with -dot: fwd|bwd|all")
	analyze := flag.Bool("analyze", false, "run the program and attribute measured time to execution units")
	dataset := flag.String("dataset", "", "named dataset topology for -analyze (empty = synthetic Zipf graph)")
	n := flag.Int("n", 30000, "synthetic graph vertex count (-analyze)")
	deg := flag.Int("deg", 8, "synthetic graph average degree (-analyze)")
	iters := flag.Int("iters", 5, "measured iterations (-analyze)")
	seed := flag.Int64("seed", 1, "graph + feature seed (-analyze)")
	gpu := flag.String("gpu", "V100", "simulated GPU profile (-analyze)")
	jsonOut := flag.String("json", "", "also write the -analyze report as JSON to this file (\"-\" = stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the -analyze run")
	flag.Parse()

	p := modelParams{in: *in, hidden: *hidden, relations: *relations}

	if *analyze {
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				fatal(err)
			}
			defer pprof.StopCPUProfile()
		}
		rep, err := runAnalyze(analyzeOptions{
			Model: *model, Params: p, Dataset: *dataset,
			N: *n, Deg: *deg, Iters: *iters, Seed: *seed, GPU: *gpu,
		})
		if err != nil {
			fatal(err)
		}
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, rep); err != nil {
				fatal(err)
			}
		}
		if *jsonOut != "-" {
			writeAnalyze(os.Stdout, rep)
		}
		return
	}

	dag, err := buildModel(*model, p)
	if err != nil {
		fatal(err)
	}
	c, err := exec.Compile(dag)
	if err != nil {
		fatal(err)
	}

	if *dot {
		passes := []string{*pass}
		if *pass == "all" {
			passes = []string{"fwd", "bwd"}
		}
		for _, ps := range passes {
			if err := writeDOT(os.Stdout, *model, ps, c); err != nil {
				fatal(err)
			}
		}
		return
	}
	writeExplain(os.Stdout, *model, c)
}

func writeJSON(path string, rep *Report) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seastar-inspect:", err)
	os.Exit(1)
}

package bench

import (
	"fmt"
	"io"

	"seastar/internal/device"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
)

// Fig12Variant names one kernel strategy of the microbenchmark (§7.2).
type Fig12Variant string

const (
	// VariantDGL is the minigun binary-search baseline.
	VariantDGL Fig12Variant = "dgl-baseline"
	// VariantBasic is vertex-parallel edge-sequential with one vertex
	// per 256-thread block and no sorting.
	VariantBasic Fig12Variant = "basic"
	// VariantFAUnsorted adds feature-adaptive groups on the unsorted
	// graph.
	VariantFAUnsorted Fig12Variant = "fa-unsorted"
	// VariantFASortAtomic adds degree sorting with atomic-counter
	// scheduling.
	VariantFASortAtomic Fig12Variant = "fa-sort-atomic"
	// VariantFASortDynamic is the full design: degree sorting plus the
	// hardware block scheduler.
	VariantFASortDynamic Fig12Variant = "fa-sort-dynamic"
)

// Fig12Variants lists the paper's variants in presentation order.
func Fig12Variants() []Fig12Variant {
	return []Fig12Variant{VariantBasic, VariantFAUnsorted, VariantFASortAtomic, VariantFASortDynamic}
}

// Fig12Point is one bar of Figure 12.
type Fig12Point struct {
	GPU         string
	FeatureSize int
	Variant     Fig12Variant
	TimeNs      float64
	// Speedup is relative to the DGL baseline at the same (gpu, size).
	Speedup float64
}

// Fig12Sizes is the paper's feature-size sweep (reddit's original 602
// plus descending powers of two).
func Fig12Sizes() []int { return []int{602, 256, 128, 64, 32, 16, 8, 4, 2, 1} }

// neighborKernel compiles the microbenchmark body — summing neighbours'
// feature vectors: sum([u.h for u in v.innbs]).
func neighborKernel(width int) (*kernels.Kernel, *gir.Node, error) {
	b := gir.NewBuilder()
	b.VFeature("h", width)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").AggSum()
	})
	if err != nil {
		return nil, nil, err
	}
	plan, err := fusion.Partition(fusion.Optimize(dag))
	if err != nil {
		return nil, nil, err
	}
	mat := plan.Materialized(nil)
	k, err := kernels.Compile(plan.Units[0], mat[plan.Units[0]], nil)
	return k, plan.DAG.Outputs[0], err
}

// Fig12 reproduces the Figure 12 microbenchmark on a reddit-like graph:
// the time to access (sum) all neighbours' features under each kernel
// strategy, swept over feature sizes, reported as speedup over the DGL
// binary-search baseline. Only kernel costs are simulated (no functional
// compute), so the sweep is fast and exact.
func Fig12(cfg Config, sizes []int) ([]Fig12Point, error) {
	if sizes == nil {
		sizes = Fig12Sizes()
	}
	scale := cfg.scale("reddit")
	ds := cfg.loadDS("reddit")
	g := ds.G
	sorted := g.SortByDegree()

	var out []Fig12Point
	for _, gpu := range cfg.GPUs {
		p, ok := device.ProfileByName(gpu)
		if !ok {
			return nil, fmt.Errorf("bench: unknown gpu %q", gpu)
		}
		for _, size := range sizes {
			k, _, err := neighborKernel(size)
			if err != nil {
				return nil, err
			}
			baseline := runFig12DGL(p, scale, g, size)
			out = append(out, Fig12Point{GPU: gpu, FeatureSize: size,
				Variant: VariantDGL, TimeNs: baseline, Speedup: 1})
			for _, variant := range Fig12Variants() {
				t := runFig12Variant(p, scale, g, sorted, k, size, variant)
				out = append(out, Fig12Point{GPU: gpu, FeatureSize: size,
					Variant: variant, TimeNs: t, Speedup: baseline / t})
			}
		}
	}
	return out, nil
}

func runFig12DGL(p device.Profile, scale float64, g *graph.Graph, width int) float64 {
	dev := device.NewScaled(p, scale)
	dev.LaunchKernel(kernels.MinigunLaunch(g, "fig12.dgl", width,
		int64(width)*4, int64(width)*4, 2, true, g.M))
	return dev.ElapsedNs()
}

func runFig12Variant(p device.Profile, scale float64, unsorted, sorted *graph.Graph,
	k *kernels.Kernel, width int, variant Fig12Variant) float64 {

	dev := device.NewScaled(p, scale)
	cfg := kernels.Config{BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedHardware}
	g := sorted
	switch variant {
	case VariantBasic:
		cfg.FeatureAdaptive = false
		g = unsorted
	case VariantFAUnsorted:
		g = unsorted
	case VariantFASortAtomic:
		cfg.Sched = device.SchedAtomic
	case VariantFASortDynamic:
	}
	k.LaunchOnly(dev, g, cfg)
	return dev.ElapsedNs()
}

// WriteFig12 renders the speedup table grouped by GPU (rows: variants,
// columns: feature sizes), matching the figure's layout.
func WriteFig12(w io.Writer, pts []Fig12Point) {
	byGPU := map[string][]Fig12Point{}
	var gpus []string
	for _, pt := range pts {
		if _, ok := byGPU[pt.GPU]; !ok {
			gpus = append(gpus, pt.GPU)
		}
		byGPU[pt.GPU] = append(byGPU[pt.GPU], pt)
	}
	for _, gpu := range gpus {
		fmt.Fprintf(w, "\n== Figure 12 on %s (simulated speedup vs DGL baseline) ==\n", gpu)
		var sizes []int
		seen := map[int]bool{}
		for _, pt := range byGPU[gpu] {
			if !seen[pt.FeatureSize] {
				seen[pt.FeatureSize] = true
				sizes = append(sizes, pt.FeatureSize)
			}
		}
		fmt.Fprintf(w, "%-16s", "variant")
		for _, s := range sizes {
			fmt.Fprintf(w, " %8d", s)
		}
		fmt.Fprintln(w)
		cell := map[Fig12Variant]map[int]float64{}
		for _, pt := range byGPU[gpu] {
			if cell[pt.Variant] == nil {
				cell[pt.Variant] = map[int]float64{}
			}
			cell[pt.Variant][pt.FeatureSize] = pt.Speedup
		}
		for _, v := range Fig12Variants() {
			fmt.Fprintf(w, "%-16s", v)
			for _, s := range sizes {
				fmt.Fprintf(w, " %8.1f", cell[v][s])
			}
			fmt.Fprintln(w)
		}
	}
}

// Package exec compiles traced vertex-centric programs into executable
// plans and runs them against a graph and the nn autograd backend — the
// paper's code generation and runtime execution layer (§5.3). A compiled
// UDF holds a forward Pass and, unless compiled for inference only, a
// backward one: each an optimized DAG partitioned into a sequence of
// execution units (fused seastar kernels, dense backend ops, and
// parameter-gradient reductions) with their materializations and kernels.
// Apply wraps the two passes as one custom autograd function; Infer runs
// the forward pass alone over plain tensors. Training's forward and
// backward and Infer all run their units through one loop, differing only
// in where each value is stored, whether a device is charged (training,
// when the nn engine carries one) and which backward units run.
//
// Tensor shapes follow the GIR types: an E-typed value has a row per edge,
// an S-typed one a row per vertex, and a D-typed one a row per in-CSR row
// of the graph, g.In.NumRows(). That is g.N on every graph but a block
// (graph.Graph.DstPrefix), where it is the D destinations, vertices
// [0, D): a sampled mini-batch's output, loss and backward then cover its
// seeds only. A vertex input keeps its N rows, and a D-typed operand read
// from one reads its first D rows. On a block, a weight gradient with a
// D-typed operand runs over those rows with the GEMM path the N-row
// product would take (tensor.TMatMulRowsLike), and a D-row gradient into
// an N-row input fills its first D rows: the rows a block drops would only
// have added exact zeros, so every value the loss reads keeps its bits.
package exec

import (
	"fmt"
	"slices"

	"seastar/internal/autodiff"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/obs"
)

// InputKind distinguishes the tensor namespaces a compiled UDF reads.
type InputKind int

const (
	// InVFeat inputs are [N, d] vertex-feature tensors.
	InVFeat InputKind = iota
	// InEFeat inputs are [M, d] edge-feature tensors.
	InEFeat
	// InParam inputs are parameter tensors.
	InParam
)

// String names the input kind (vfeat, efeat, param).
func (k InputKind) String() string {
	switch k {
	case InVFeat:
		return "vfeat"
	case InEFeat:
		return "efeat"
	case InParam:
		return "param"
	default:
		return fmt.Sprintf("InputKind(%d)", int(k))
	}
}

// InputSpec names one input of a compiled UDF, in autograd-input order.
type InputSpec struct {
	Kind InputKind
	Key  string
}

// CompiledUDF is a fully lowered vertex-centric program: its optimized
// forward pass and, unless compiled for inference only, its backward
// pass. Compile once, apply every iteration — the paper's
// trace-once-then-cache behaviour (§5.1).
type CompiledUDF struct {
	// Fwd is the forward pass.
	Fwd *Pass
	// Bwd is the gradient pass; nil for an inference-only compile. Its
	// DAG's i-th output is the gradient of the forward leaf that
	// autodiff.Gradients.LeafOrder lists i-th.
	Bwd *Pass

	// saved lists forward operator nodes whose values the backward pass
	// reads (materialization planning keeps exactly these, §5.3).
	saved []*gir.Node

	// Inputs is the autograd input order of Apply.
	Inputs []InputSpec
	// leafInput[i] is the input index that Bwd.DAG.Outputs[i]'s gradient
	// accumulates into.
	leafInput []int
}

// Pass is one compiled pass of a UDF: its optimized DAG, the plan that
// partitions it into execution units, and for each unit the nodes it
// materializes, its seastar kernel and its obs label.
type Pass struct {
	DAG  *gir.DAG
	Plan *fusion.Plan

	mat  map[*fusion.Unit][]*gir.Node
	kern map[*fusion.Unit]*kernels.Kernel
	// labels are the units' obs attribution names, parallel to
	// Plan.Units, so tracing a unit on the hot path is a slice index.
	labels []string
}

// Kernel returns the compiled kernel of a seastar unit, nil for a dense
// or parameter-gradient one.
func (p *Pass) Kernel(u *fusion.Unit) *kernels.Kernel { return p.kern[u] }

// Materialized returns the nodes of u whose values the materialization
// planner writes to tensors (§5.3).
func (p *Pass) Materialized(u *fusion.Unit) []*gir.Node { return p.mat[u] }

// Labels returns the units' obs attribution names, parallel to
// Plan.Units, e.g. "fwd/unit 3 [seastar]". EXPLAIN ANALYZE joins them
// against the obs registry to attribute measured time back to units. The
// slice is shared: read it only.
func (p *Pass) Labels() []string { return p.labels }

// Options tunes compilation, exposing the ablation switches.
type Options struct {
	// NoFusion puts every operator in its own execution unit (the
	// paper's un-fused baseline): edge intermediates materialize.
	NoFusion bool
	// InferenceOnly skips backward-pass generation entirely: no
	// autodiff, no backward plan, no saved-value retention. The result
	// supports Infer but not Apply (which needs gradients). This also
	// admits forward-only programs that are not differentiable (max or
	// mean aggregations).
	InferenceOnly bool
}

// Compile lowers a traced forward DAG end to end: optimize → autodiff →
// optimize backward → partition both → compile kernels.
func Compile(dag *gir.DAG) (*CompiledUDF, error) {
	return CompileWith(dag, Options{})
}

// CompileInference lowers only the forward pass (see
// Options.InferenceOnly) — the serving layer's compile entry point.
func CompileInference(dag *gir.DAG) (*CompiledUDF, error) {
	return CompileWith(dag, Options{InferenceOnly: true})
}

// CompileWith is Compile with explicit options.
func CompileWith(dag *gir.DAG, opts Options) (*CompiledUDF, error) {
	total := obs.Begin("compile", "total")
	defer total.End()
	partition := fusion.Partition
	if opts.NoFusion {
		partition = fusion.PartitionUnfused
	}
	sp := obs.Begin("compile", "optimize")
	fwd := fusion.Optimize(dag)
	sp.End()

	c := &CompiledUDF{}
	var grads *autodiff.Gradients
	var err error
	savedSet := make(map[*gir.Node]bool)
	if !opts.InferenceOnly {
		sp := obs.Begin("compile", "autodiff")
		if grads, err = autodiff.Backward(fwd); err != nil {
			return nil, err
		}
		grads.DAG = fusion.Optimize(grads.DAG)
		sp.End()

		// Forward values the backward pass references.
		for _, n := range grads.DAG.Nodes {
			if n.Op == gir.OpLeaf && n.LeafKind == gir.LeafSaved && n.Ref.Op != gir.OpLeaf {
				if !savedSet[n.Ref] {
					savedSet[n.Ref] = true
					c.saved = append(c.saved, n.Ref)
				}
			}
		}
	}
	if c.Fwd, err = compilePass("fwd", fwd, partition, savedSet); err != nil {
		return nil, err
	}
	if grads != nil {
		if c.Bwd, err = compilePass("bwd", grads.DAG, partition, nil); err != nil {
			return nil, err
		}
	}

	// Input order: vertex features, edge features, parameters (first-use
	// order within each group).
	vkeys, ekeys := fwd.FeatureKeys()
	for _, k := range vkeys {
		c.Inputs = append(c.Inputs, InputSpec{InVFeat, k})
	}
	for _, k := range ekeys {
		c.Inputs = append(c.Inputs, InputSpec{InEFeat, k})
	}
	for _, k := range fwd.ParamKeys() {
		c.Inputs = append(c.Inputs, InputSpec{InParam, k})
	}
	if grads == nil {
		return c, nil
	}
	for _, leaf := range grads.LeafOrder {
		spec := InputSpec{Kind: InVFeat, Key: leaf.Key}
		switch leaf.LeafKind {
		case gir.LeafEdgeFeat:
			spec.Kind = InEFeat
		case gir.LeafParam:
			spec.Kind = InParam
		}
		i := slices.Index(c.Inputs, spec)
		if i < 0 {
			return nil, fmt.Errorf("exec: gradient for unknown input %v", spec)
		}
		c.leafInput = append(c.leafInput, i)
	}
	return c, nil
}

// compilePass lowers one pass: partition → materialize (keeping the
// nodes in keep) → kernels → labels.
func compilePass(name string, dag *gir.DAG, partition func(*gir.DAG) (*fusion.Plan, error), keep map[*gir.Node]bool) (*Pass, error) {
	sp := obs.Begin("compile", "partition")
	plan, err := partition(dag)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("exec: %s partition: %w", name, err)
	}
	sp = obs.Begin("compile", "materialize")
	p := &Pass{DAG: dag, Plan: plan, mat: plan.Materialized(keep), kern: map[*fusion.Unit]*kernels.Kernel{}}
	sp.End()
	avail := make(map[*gir.Node]bool)
	for _, ns := range p.mat {
		for _, n := range ns {
			avail[n] = true
		}
	}
	sp = obs.Begin("compile", "kernelgen")
	defer sp.End()
	for _, u := range plan.Units {
		label := fmt.Sprintf("%s/unit %d [%s]", name, u.ID, u.Kind)
		p.labels = append(p.labels, label)
		if u.Kind != fusion.KindSeastar {
			continue
		}
		k, err := kernels.Compile(u, p.mat[u], avail)
		if err != nil {
			return nil, err
		}
		k.SetObsLabel(label)
		p.kern[u] = k
	}
	return p, nil
}

// isBlock reports whether g is a block (graph.Graph.DstPrefix): its
// in-CSR has fewer rows than it has vertices.
func isBlock(g *graph.Graph) bool { return g.In.NumRows() < g.N }

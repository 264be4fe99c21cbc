// Package exec compiles traced vertex-centric programs into executable
// plans and runs them against a graph and the nn autograd backend — the
// paper's code generation and runtime execution layer (§5.3). A compiled
// UDF becomes a custom autograd function whose forward and backward passes
// each dispatch a sequence of execution units: fused seastar kernels,
// dense backend ops, and parameter-gradient reductions. A unit is charged
// to a simulated device only when the nn engine carries one.
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

// CompiledUDF is a fully lowered vertex-centric program: optimized
// forward and backward GIRs, their unit partitions, materialization
// plans, and compiled kernels. Compile once, apply every iteration — the
// paper's trace-once-then-cache behaviour (§5.1).
type CompiledUDF struct {
	Fwd   *gir.DAG
	Grads *autodiff.Gradients

	FwdPlan *fusion.Plan
	BwdPlan *fusion.Plan

	fwdMat map[*fusion.Unit][]*gir.Node
	bwdMat map[*fusion.Unit][]*gir.Node

	fwdKern map[*fusion.Unit]*kernels.Kernel
	bwdKern map[*fusion.Unit]*kernels.Kernel

	// fwdLabels/bwdLabels are precomputed obs attribution names, parallel
	// to FwdPlan.Units / BwdPlan.Units, so the per-unit tracing on the
	// execution hot path is a slice index — no fmt, no map, no alloc.
	fwdLabels []string
	bwdLabels []string

	// fwdNoBlock and bwdNoBlock name the first unit of each pass that
	// cannot run on a block (blockless), "" when every unit can.
	fwdNoBlock, bwdNoBlock string

	// saved lists forward operator nodes whose values the backward pass
	// reads (materialization planning keeps exactly these, §5.3).
	saved []*gir.Node

	// Inputs is the autograd input order of Apply.
	Inputs []InputSpec
	// leafInput[i] is the input index that Grads.LeafOrder[i]'s gradient
	// accumulates into.
	leafInput []int
}

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

	c := &CompiledUDF{Fwd: fwd}
	var err error
	savedSet := make(map[*gir.Node]bool)
	if !opts.InferenceOnly {
		sp := obs.Begin("compile", "autodiff")
		grads, err := autodiff.Backward(fwd)
		if err != nil {
			return nil, err
		}
		grads.DAG = fusion.Optimize(grads.DAG)
		sp.End()
		c.Grads = grads

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

	sp = obs.Begin("compile", "partition")
	if c.FwdPlan, err = partition(fwd); err != nil {
		return nil, fmt.Errorf("exec: forward partition: %w", err)
	}
	if c.Grads != nil {
		if c.BwdPlan, err = partition(c.Grads.DAG); err != nil {
			return nil, fmt.Errorf("exec: backward partition: %w", err)
		}
	}
	sp.End()
	sp = obs.Begin("compile", "materialize")
	c.fwdMat = c.FwdPlan.Materialized(savedSet)
	if c.BwdPlan != nil {
		c.bwdMat = c.BwdPlan.Materialized(nil)
	}
	sp.End()

	availOf := func(mat map[*fusion.Unit][]*gir.Node) map[*gir.Node]bool {
		avail := make(map[*gir.Node]bool)
		for _, ns := range mat {
			for _, n := range ns {
				avail[n] = true
			}
		}
		return avail
	}
	fwdAvail := availOf(c.fwdMat)
	bwdAvail := availOf(c.bwdMat)

	sp = obs.Begin("compile", "kernelgen")
	c.fwdKern = make(map[*fusion.Unit]*kernels.Kernel)
	for _, u := range c.FwdPlan.Units {
		c.fwdLabels = append(c.fwdLabels, unitLabel("fwd", u))
		if u.Kind == fusion.KindSeastar {
			k, err := kernels.Compile(u, c.fwdMat[u], fwdAvail)
			if err != nil {
				return nil, err
			}
			k.SetObsLabel(unitLabel("fwd", u))
			c.fwdKern[u] = k
		}
	}
	c.bwdKern = make(map[*fusion.Unit]*kernels.Kernel)
	if c.BwdPlan != nil {
		for _, u := range c.BwdPlan.Units {
			c.bwdLabels = append(c.bwdLabels, unitLabel("bwd", u))
			if u.Kind == fusion.KindSeastar {
				k, err := kernels.Compile(u, c.bwdMat[u], bwdAvail)
				if err != nil {
					return nil, err
				}
				k.SetObsLabel(unitLabel("bwd", u))
				c.bwdKern[u] = k
			}
		}
	}
	sp.End()
	c.fwdNoBlock = blockless("fwd", c.FwdPlan, c.fwdKern, c.fwdMat)
	if c.BwdPlan != nil {
		c.bwdNoBlock = blockless("bwd", c.BwdPlan, c.bwdKern, c.bwdMat)
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
	index := make(map[InputSpec]int, len(c.Inputs))
	for i, s := range c.Inputs {
		index[s] = i
	}
	if c.Grads != nil {
		for _, leaf := range c.Grads.LeafOrder {
			spec := InputSpec{Kind: InVFeat, Key: leaf.Key}
			switch leaf.LeafKind {
			case gir.LeafEdgeFeat:
				spec.Kind = InEFeat
			case gir.LeafParam:
				spec.Kind = InParam
			}
			i, ok := index[spec]
			if !ok {
				return nil, fmt.Errorf("exec: gradient for unknown input %v", spec)
			}
			c.leafInput = append(c.leafInput, i)
		}
	}
	return c, nil
}

// blockless names the first unit of plan that cannot run on a block, or
// returns "". An A:S kernel writes a D-typed materialization from a sweep
// over every vertex (kernels.Kernel's neighbour-typed sweep), which a
// tensor of a block's destination rows cannot hold.
func blockless(pass string, plan *fusion.Plan, kern map[*fusion.Unit]*kernels.Kernel, mat map[*fusion.Unit][]*gir.Node) string {
	for _, u := range plan.Units {
		if k := kern[u]; k == nil || k.Dir != gir.AggToSrc {
			continue
		}
		for _, m := range mat[u] {
			if m.Type == gir.TypeD {
				return fmt.Sprintf("%s unit %d (an A:S kernel writing D-typed %%%d for every vertex)", pass, u.ID, m.ID)
			}
		}
	}
	return ""
}

// isBlock reports whether g is a block (graph.Graph.DstPrefix): its
// in-CSR has fewer rows than it has vertices.
func isBlock(g *graph.Graph) bool { return g.In.NumRows() < g.N }

// unitLabel is the obs attribution name for one execution unit of a
// pass, e.g. "fwd/unit 3 [seastar]".
func unitLabel(pass string, u *fusion.Unit) string {
	return fmt.Sprintf("%s/unit %d [%s]", pass, u.ID, u.Kind)
}

// UnitLabels returns the obs attribution names of the forward and
// backward execution units, parallel to FwdPlan.Units and BwdPlan.Units.
// EXPLAIN ANALYZE joins these against the obs registry to attribute
// measured time back to plan units.
func (c *CompiledUDF) UnitLabels() (fwd, bwd []string) {
	return append([]string(nil), c.fwdLabels...), append([]string(nil), c.bwdLabels...)
}

// FwdKernel returns the compiled kernel of a forward seastar unit, or
// nil for dense/paramgrad units. Introspection only — execution goes
// through Apply/Infer.
func (c *CompiledUDF) FwdKernel(u *fusion.Unit) *kernels.Kernel { return c.fwdKern[u] }

// BwdKernel is FwdKernel for the backward plan.
func (c *CompiledUDF) BwdKernel(u *fusion.Unit) *kernels.Kernel { return c.bwdKern[u] }

// MaterializedFwd returns the forward-plan nodes of u whose values the
// materialization planner decided to write to tensors (§5.3).
func (c *CompiledUDF) MaterializedFwd(u *fusion.Unit) []*gir.Node { return c.fwdMat[u] }

// MaterializedBwd is MaterializedFwd for the backward plan.
func (c *CompiledUDF) MaterializedBwd(u *fusion.Unit) []*gir.Node { return c.bwdMat[u] }

package exec

import (
	"fmt"

	"seastar/internal/device"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/nn"
	"seastar/internal/obs"
	"seastar/internal/tensor"
)

// Runtime binds a compiled UDF to an nn engine, a graph, and a kernel
// configuration. When the engine has a device, every unit is also charged
// to it (kernels.Kernel.LaunchOnly, nn.Engine.ChargeDense) after it
// computes; without one nothing is simulated. It is a cheap view: every
// materialized value is drawn from the engine's tensor pool, so a
// mini-batch trainer can build one per batch subgraph and still reuse
// the previous batch's storage.
type Runtime struct {
	G   *graph.Graph
	Cfg kernels.Config
	E   *nn.Engine
}

// NewRuntime creates a runtime with the default (full-Seastar) kernel
// configuration.
func NewRuntime(e *nn.Engine, g *graph.Graph) *Runtime {
	return &Runtime{G: g, Cfg: kernels.DefaultConfig(), E: e}
}

// Apply executes the compiled UDF as an autograd function over the given
// named variables, returning the [N, d] output variable. Missing inputs
// are an error; extra entries are ignored.
func (c *CompiledUDF) Apply(rt *Runtime, vfeat, efeat, params map[string]*nn.Variable) (*nn.Variable, error) {
	if c.Grads == nil {
		return nil, fmt.Errorf("exec: Apply on an inference-only compilation (use Infer, or compile without Options.InferenceOnly)")
	}
	inputs := make([]*nn.Variable, len(c.Inputs))
	for i, spec := range c.Inputs {
		var m map[string]*nn.Variable
		switch spec.Kind {
		case InVFeat:
			m = vfeat
		case InEFeat:
			m = efeat
		default:
			m = params
		}
		v, ok := m[spec.Key]
		if !ok {
			return nil, fmt.Errorf("exec: missing %s input %q", spec.Kind, spec.Key)
		}
		inputs[i] = v
	}
	fn := &udfFunction{c: c, rt: rt, needGrad: make([]bool, len(inputs))}
	for i, v := range inputs {
		fn.needGrad[i] = v.RequiresGrad
	}
	return rt.E.Apply(fn, "seastar.udf", inputs...), nil
}

// udfFunction is the nn.Function wrapping one Apply invocation.
type udfFunction struct {
	c        *CompiledUDF
	rt       *Runtime
	needGrad []bool

	fwdBind *kernels.Bindings // kept alive for the backward pass
	// bufs maps materialized nodes to their device buffers, so the
	// backward pass can free intermediates eagerly (§5.3). The host
	// storage behind them goes back to the pool at EndIteration.
	bufs map[*gir.Node]*device.Buffer
}

func (f *udfFunction) bindingsFrom(vals []*tensor.Tensor) *kernels.Bindings {
	b := &kernels.Bindings{
		VFeat:  map[string]*tensor.Tensor{},
		EFeat:  map[string]*tensor.Tensor{},
		Params: map[string]*tensor.Tensor{},
		Inter:  map[*gir.Node]*tensor.Tensor{},
	}
	for i, spec := range f.c.Inputs {
		switch spec.Kind {
		case InVFeat:
			b.VFeat[spec.Key] = vals[i]
		case InEFeat:
			b.EFeat[spec.Key] = vals[i]
		default:
			b.Params[spec.Key] = vals[i]
		}
	}
	return b
}

// allocOut creates (and charges) the output tensor for a materialized
// node, remembering its buffer for eager freeing. Storage is drawn from
// the engine's pool, so in steady state this recycles the buffers the
// previous iteration handed back.
func (f *udfFunction) allocOut(n *gir.Node) *tensor.Tensor {
	t := f.rt.E.Get(matShape(f.rt.G, n)...)
	f.record(n, t)
	return t
}

// runUnit dispatches one execution unit.
func (f *udfFunction) runUnit(u *fusion.Unit, kern *kernels.Kernel, mat []*gir.Node, b *kernels.Bindings) error {
	switch u.Kind {
	case fusion.KindSeastar:
		outs := make(map[*gir.Node]*tensor.Tensor, len(mat))
		for _, m := range mat {
			outs[m] = f.allocOut(m)
		}
		if err := kern.Run(f.rt.G, f.rt.Cfg, b, outs); err != nil {
			return err
		}
		if dev := f.rt.E.Dev; dev != nil {
			kern.LaunchOnly(dev, f.rt.G, f.rt.Cfg)
		}
		for n, t := range outs {
			b.Inter[n] = t
		}
		return nil
	case fusion.KindDense:
		return f.runDense(u, b)
	case fusion.KindParamGrad:
		return f.runParamGrad(u, b)
	default:
		return fmt.Errorf("exec: unknown unit kind %v", u.Kind)
	}
}

func (f *udfFunction) runDense(u *fusion.Unit, b *kernels.Bindings) error {
	for _, n := range u.Nodes {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			t, err := b.Resolve(in)
			if err != nil {
				return err
			}
			ins[i] = t
		}
		out, err := denseOp(n, ins, f.rt.E.Get)
		if err != nil {
			return err
		}
		f.rt.E.ChargeDense(denseCost(n, ins, out))
		f.record(n, out)
		b.Inter[n] = out
	}
	return nil
}

// record charges a materialized node's output to the engine's device, if
// it has one, and remembers the buffer for eager freeing.
func (f *udfFunction) record(n *gir.Node, t *tensor.Tensor) {
	if f.rt.E.Dev == nil {
		return
	}
	if f.bufs == nil {
		f.bufs = make(map[*gir.Node]*device.Buffer)
	}
	f.bufs[n] = f.rt.E.AllocBytesHandle(int64(t.Size()) * 4)
}

// runParamGrad executes dW = Σ xᵀ g reductions. Vertex-typed operands
// reduce with a dense GEMM; edge-typed gradients walk the edge list
// (accumulating per relation for the typed variant).
func (f *udfFunction) runParamGrad(u *fusion.Unit, b *kernels.Bindings) error {
	for _, n := range u.Nodes {
		xNode, gNode := n.Inputs[0], n.Inputs[1]
		x, err := b.Resolve(xNode)
		if err != nil {
			return err
		}
		gT, err := b.Resolve(gNode)
		if err != nil {
			return err
		}
		var out *tensor.Tensor
		switch n.Op {
		case gir.OpParamGradMM:
			if xNode.Type != gir.TypeE && gNode.Type != gir.TypeE {
				out = tensor.TMatMul(x, gT, f.rt.E.Get(x.Cols(), gT.Cols()))
			} else {
				out = f.edgeParamGrad(xNode, gNode, x, gT, n.Shape, false)
			}
		case gir.OpParamGradMMTyped:
			out = f.edgeParamGrad(xNode, gNode, x, gT, n.Shape, true)
		default:
			return fmt.Errorf("exec: paramgrad unit cannot run %s", n.Op)
		}
		rows := f.rt.G.M
		if xNode.Type != gir.TypeE && gNode.Type != gir.TypeE {
			rows = x.Rows()
		}
		din := n.Shape[len(n.Shape)-2]
		dout := n.Shape[len(n.Shape)-1]
		f.rt.E.ChargeDense("paramgrad",
			float64(rows)*float64(din)*float64(dout),
			int64(x.Size()+gT.Size())*4, int64(out.Size())*4*2)
		f.record(n, out)
		b.Inter[n] = out.Reshape(n.Shape...)
	}
	return nil
}

// edgeParamGrad accumulates per-edge outer products xᵀg into a weight
// gradient; with typed=true the edge's relation selects the slice.
func (f *udfFunction) edgeParamGrad(xNode, gNode *gir.Node, x, g *tensor.Tensor, wShape []int, typed bool) *tensor.Tensor {
	gg := f.rt.G
	din := wShape[len(wShape)-2]
	dout := wShape[len(wShape)-1]
	out := f.rt.E.Get(wShape...)
	od := out.Data()
	rowFor := func(n *gir.Node, t *tensor.Tensor, src, dst, eid int) []float32 {
		typ := n.Type
		if n.Op == gir.OpLeaf && n.LeafKind == gir.LeafSaved {
			typ = n.Ref.Type
		}
		switch typ {
		case gir.TypeS:
			return t.Row(src)
		case gir.TypeD:
			return t.Row(dst)
		default:
			return t.Row(eid)
		}
	}
	for e := 0; e < gg.M; e++ {
		src, dst := int(gg.Srcs[e]), int(gg.Dsts[e])
		xr := rowFor(xNode, x, src, dst, e)
		gr := rowFor(gNode, g, src, dst, e)
		base := 0
		if typed {
			base = int(gg.EdgeTypes[e]) * din * dout
		}
		for i := 0; i < din; i++ {
			xi := xr[i]
			if xi == 0 {
				continue
			}
			row := od[base+i*dout : base+(i+1)*dout]
			for o := 0; o < dout; o++ {
				row[o] += xi * gr[o]
			}
		}
	}
	return out
}

// Forward runs the forward plan's units in order.
func (f *udfFunction) Forward(ctx *nn.FuncCtx, inputs ...*tensor.Tensor) *tensor.Tensor {
	b := f.bindingsFrom(inputs)
	for i, u := range f.c.FwdPlan.Units {
		sp := obs.Begin("exec", f.c.fwdLabels[i])
		err := f.runUnit(u, f.c.fwdKern[u], f.c.fwdMat[u], b)
		sp.End()
		if err != nil {
			panic(fmt.Errorf("exec: forward unit %d: %w", u.ID, err))
		}
	}
	f.reportPool()
	f.fwdBind = b
	out, err := b.Resolve(f.c.Fwd.Outputs[0])
	if err != nil {
		panic(err)
	}
	return out
}

// Backward runs only the backward units needed for the inputs that
// require gradients (the DL backend's requires-grad pruning).
func (f *udfFunction) Backward(ctx *nn.FuncCtx, gradOut *tensor.Tensor) []*tensor.Tensor {
	c := f.c
	needOut := make(map[*gir.Node]bool)
	for i := range c.Grads.LeafOrder {
		if f.needGrad[c.leafInput[i]] {
			needOut[c.Grads.DAG.Outputs[i]] = true
		}
	}
	grads := make([]*tensor.Tensor, len(c.Inputs))
	if len(needOut) == 0 {
		return grads
	}

	// Transitively mark needed units, walking the unit list backwards.
	// Seastar units report their true external reads (recompute inlining
	// can pull in dependencies that are not direct node inputs, and skip
	// direct inputs it re-derives in registers).
	needUnit := make(map[*fusion.Unit]bool)
	needNode := needOut
	for i := len(c.BwdPlan.Units) - 1; i >= 0; i-- {
		u := c.BwdPlan.Units[i]
		needed := false
		for _, m := range c.bwdMat[u] {
			if needNode[m] {
				needed = true
			}
		}
		if !needed {
			continue
		}
		needUnit[u] = true
		if kern := c.bwdKern[u]; kern != nil {
			for _, in := range kern.ExternalReads() {
				needNode[in] = true
			}
			continue
		}
		for _, n := range u.Nodes {
			for _, in := range n.Inputs {
				if in.Op != gir.OpLeaf && c.BwdPlan.UnitOf(in) != u {
					needNode[in] = true
				}
			}
		}
	}

	b := f.bindingsFrom(inputsOf(f.fwdBind, c))
	b.Grad = gradOut
	b.Saved = map[*gir.Node]*tensor.Tensor{}
	for _, s := range c.saved {
		t, ok := f.fwdBind.Inter[s]
		if !ok {
			panic(fmt.Errorf("exec: saved forward value %%%d missing", s.ID))
		}
		b.Saved[s] = t
	}
	// Eager freeing (§5.3): count, over the units that will actually
	// run, how many still read each backward intermediate; free a
	// buffer the moment its last reader finishes. Gradient outputs are
	// excluded (they are returned to the caller).
	readsOf := func(u *fusion.Unit) []*gir.Node {
		if kern := c.bwdKern[u]; kern != nil {
			return kern.ExternalReads()
		}
		var out []*gir.Node
		for _, n := range u.Nodes {
			for _, in := range n.Inputs {
				if in.Op != gir.OpLeaf && c.BwdPlan.UnitOf(in) != u {
					out = append(out, in)
				}
			}
		}
		return out
	}
	readers := make(map[*gir.Node]int)
	for _, u := range c.BwdPlan.Units {
		if !needUnit[u] {
			continue
		}
		for _, n := range readsOf(u) {
			readers[n]++
		}
	}
	keep := make(map[*gir.Node]bool)
	for i := range c.Grads.LeafOrder {
		if f.needGrad[c.leafInput[i]] {
			keep[c.Grads.DAG.Outputs[i]] = true
		}
	}

	for i, u := range c.BwdPlan.Units {
		if !needUnit[u] {
			continue
		}
		sp := obs.Begin("exec", c.bwdLabels[i])
		err := f.runUnit(u, f.c.bwdKern[u], f.c.bwdMat[u], b)
		sp.End()
		if err != nil {
			panic(fmt.Errorf("exec: backward unit %d: %w", u.ID, err))
		}
		for _, n := range readsOf(u) {
			readers[n]--
			if readers[n] == 0 && !keep[n] {
				f.bufs[n].Free()
				delete(f.bufs, n)
			}
		}
	}

	f.reportPool()
	summed := make([]bool, len(c.Inputs))
	for i := range c.Grads.LeafOrder {
		idx := c.leafInput[i]
		if !f.needGrad[idx] {
			continue
		}
		gnode := c.Grads.DAG.Outputs[i]
		// Resolve handles the degenerate case where a leaf's gradient
		// is the seed itself (a UDF returning a bare Self feature).
		t, err := b.Resolve(gnode)
		if err != nil {
			panic(fmt.Errorf("exec: gradient output %%%d not materialized: %w", gnode.ID, err))
		}
		// The caller only reads what it is handed (nn accumulates into
		// its own buffer), so the first contribution to a leaf is
		// aliased; a second one needs a buffer of its own to add into.
		if grads[idx] == nil {
			grads[idx] = t
			continue
		}
		if !summed[idx] {
			sum := f.rt.E.Get(t.Shape()...)
			sum.CopyFrom(grads[idx])
			grads[idx], summed[idx] = sum, true
		}
		tensor.AddInPlace(grads[idx], t)
	}
	return grads
}

// reportPool publishes the engine pool's gauges and lifetime counters to
// the obs registry (no-op with tracing disabled).
func (f *udfFunction) reportPool() {
	if !obs.Enabled() {
		return
	}
	st := f.rt.E.PoolStats()
	obs.Set("exec", "pool", "hits", st.Hits)
	obs.Set("exec", "pool", "misses", st.Misses)
	obs.Set("exec", "pool", "bytes_out", st.BytesOut)
	obs.Set("exec", "pool", "bytes_idle", st.BytesIdle)
}

// inputsOf reconstructs the ordered input tensors from the forward
// bindings (they are the same objects passed to Forward).
func inputsOf(b *kernels.Bindings, c *CompiledUDF) []*tensor.Tensor {
	vals := make([]*tensor.Tensor, len(c.Inputs))
	for i, spec := range c.Inputs {
		switch spec.Kind {
		case InVFeat:
			vals[i] = b.VFeat[spec.Key]
		case InEFeat:
			vals[i] = b.EFeat[spec.Key]
		default:
			vals[i] = b.Params[spec.Key]
		}
	}
	return vals
}

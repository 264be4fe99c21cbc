package exec

import (
	"fmt"
	"slices"

	"seastar/internal/device"
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
// named variables, returning the output variable: [N, d], or [D, d] on a
// block's D destinations. Missing inputs are an error; extra entries are
// ignored.
func (c *CompiledUDF) Apply(rt *Runtime, vfeat, efeat, params map[string]*nn.Variable) (*nn.Variable, error) {
	if c.Bwd == nil {
		return nil, fmt.Errorf("exec: Apply on an inference-only compilation (use Infer, or compile without Options.InferenceOnly)")
	}
	inputs, err := ordered(c, nil, vfeat, efeat, params)
	if err != nil {
		return nil, err
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

	inputs  []*tensor.Tensor  // Forward's, in c.Inputs order
	fwdBind *kernels.Bindings // kept alive for the backward pass
	// bufs maps materialized nodes to their device buffers, so the
	// backward pass can free intermediates eagerly (§5.3). The host
	// storage behind them goes back to the pool at EndIteration.
	bufs map[*gir.Node]*device.Buffer
}

// store draws a materialized node's tensor from the engine's pool — in
// steady state the buffers the previous iteration handed back — and, with
// a device, charges its memory and remembers the buffer for eager freeing.
func (f *udfFunction) store(n *gir.Node, shape ...int) *tensor.Tensor {
	t := f.rt.E.Get(shape...)
	if f.rt.E.Dev != nil {
		if f.bufs == nil {
			f.bufs = make(map[*gir.Node]*device.Buffer)
		}
		f.bufs[n] = f.rt.E.AllocBytesHandle(int64(t.Size()) * 4)
	}
	return t
}

// Forward runs every unit of the forward pass.
func (f *udfFunction) Forward(ctx *nn.FuncCtx, inputs ...*tensor.Tensor) *tensor.Tensor {
	f.inputs, f.fwdBind = inputs, f.c.bind(inputs)
	if err := f.c.Fwd.run(f.rt.G, f.fwdBind, f.store, f.rt, nil, nil); err != nil {
		panic(err)
	}
	f.reportPool()
	out, err := f.fwdBind.Resolve(f.c.Fwd.DAG.Outputs[0])
	if err != nil {
		panic(err)
	}
	return out
}

// Backward runs only the backward units needed for the inputs that
// require gradients (the DL backend's requires-grad pruning).
func (f *udfFunction) Backward(ctx *nn.FuncCtx, gradOut *tensor.Tensor) []*tensor.Tensor {
	c, p := f.c, f.c.Bwd
	grads := make([]*tensor.Tensor, len(c.Inputs))
	// keep holds the gradient outputs some input needs: they are returned
	// to the caller, so never freed early.
	keep := make(map[*gir.Node]bool)
	for i, idx := range c.leafInput {
		if f.needGrad[idx] {
			keep[p.DAG.Outputs[i]] = true
		}
	}
	if len(keep) == 0 {
		return grads
	}

	// Walking the units backwards, a unit is needed when a value it
	// materializes is kept or read by a needed unit. Counting the needed
	// units' reads of each value drives eager freeing (§5.3): a buffer is
	// freed the moment its last reader finishes.
	units := p.Plan.Units
	need := make([]bool, len(units))
	reads := make([][]*gir.Node, len(units))
	readers := make(map[*gir.Node]int)
	for i := len(units) - 1; i >= 0; i-- {
		need[i] = slices.ContainsFunc(p.mat[units[i]], func(m *gir.Node) bool { return keep[m] || readers[m] > 0 })
		if need[i] {
			reads[i] = p.reads(units[i])
			for _, n := range reads[i] {
				readers[n]++
			}
		}
	}

	b := c.bind(f.inputs)
	b.Grad = gradOut
	b.Saved = map[*gir.Node]*tensor.Tensor{}
	for _, s := range c.saved {
		t, ok := f.fwdBind.Inter[s]
		if !ok {
			panic(fmt.Errorf("exec: saved forward value %%%d missing", s.ID))
		}
		b.Saved[s] = t
	}
	err := p.run(f.rt.G, b, f.store, f.rt, need, func(i int) {
		for _, n := range reads[i] {
			if readers[n]--; readers[n] == 0 && !keep[n] {
				f.bufs[n].Free()
				delete(f.bufs, n)
			}
		}
	})
	if err != nil {
		panic(err)
	}

	f.reportPool()
	summed := make([]bool, len(c.Inputs))
	for i, idx := range c.leafInput {
		if !f.needGrad[idx] {
			continue
		}
		gnode := p.DAG.Outputs[i]
		// Resolve handles the degenerate case where a leaf's gradient
		// is the seed itself (a UDF returning a bare Self feature).
		t, err := b.Resolve(gnode)
		if err != nil {
			panic(fmt.Errorf("exec: gradient output %%%d not materialized: %w", gnode.ID, err))
		}
		// The caller only reads what it is handed (nn accumulates into
		// its own buffer), so the first contribution to a leaf is
		// aliased; a second one needs a buffer of its own to add into.
		// So does a D-typed one on a block: it covers the first rows of
		// its N-row input, and the rows past them stay zero.
		in := f.inputs[idx]
		if grads[idx] == nil && t.Size() == in.Size() {
			grads[idx] = t
			continue
		}
		if !summed[idx] {
			sum := f.rt.E.Get(in.Shape()...)
			first := grads[idx]
			if first == nil {
				first, t = t, nil
			}
			sum.TopRows(first.Dim(0)).CopyFrom(first)
			grads[idx], summed[idx] = sum, true
		}
		if t != nil {
			tensor.AddInPlace(grads[idx].TopRows(t.Dim(0)), t)
		}
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

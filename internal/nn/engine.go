// Package nn is the minimal deep-learning backend the Seastar reproduction
// plugs into, playing the role PyTorch plays in the paper: dense tensors
// with define-by-run automatic differentiation, layers, losses, and
// optimizers. Every operation optionally charges a simulated GPU
// (internal/device) for its memory traffic and arithmetic, and allocates
// its outputs from the device allocator so that peak-memory measurements
// include the dense portions of a model, exactly as the paper's
// measurements do.
//
// Seastar's compiled execution units integrate through the Function
// interface (the analogue of torch.autograd.Function).
package nn

import (
	"fmt"

	"seastar/internal/device"
	"seastar/internal/tensor"
)

// Variable is a node in the autograd tape: a value, an optional gradient,
// and a backward closure connecting it to its inputs.
type Variable struct {
	Value        *tensor.Tensor
	Grad         *tensor.Tensor
	RequiresGrad bool

	engine  *Engine
	inputs  []*Variable
	back    func(grad *tensor.Tensor)
	name    string
	visitID int
}

// Name returns the variable's debug name.
func (v *Variable) Name() string { return v.name }

// Engine owns an autograd tape, the simulated device, and iteration-scoped
// memory: device accounting and the host storage behind it.
type Engine struct {
	Dev *device.Device // nil disables cost accounting

	tape    []*Variable
	buffers []*device.Buffer
	visitID int

	// pool supplies every iteration-scoped tensor (op outputs, gradients
	// of tape nodes, the execution runtime's materialized values);
	// scratch lists what the current iteration drew, for EndIteration to
	// hand back.
	pool    *tensor.Pool
	scratch []*tensor.Tensor
}

// NewEngine creates an engine charging costs to dev (which may be nil).
func NewEngine(dev *device.Device) *Engine { return &Engine{Dev: dev, pool: tensor.NewPool()} }

// Get returns a zeroed tensor that lives until EndIteration, which
// recycles its storage: callers copy out whatever must outlive the
// iteration.
func (e *Engine) Get(shape ...int) *tensor.Tensor {
	t := e.pool.Get(shape...)
	e.scratch = append(e.scratch, t)
	return t
}

// PoolStats reads the engine's tensor pool (diagnostics and tests).
func (e *Engine) PoolStats() tensor.PoolStats { return e.pool.Stats() }

// alloc reserves device memory for t's data and tracks it for the current
// iteration. Allocation failure panics with *device.ErrOOM; harness code
// recovers it via CatchOOM.
func (e *Engine) alloc(t *tensor.Tensor) {
	if e.Dev == nil || t == nil {
		return
	}
	buf, err := e.Dev.Alloc(int64(t.Size()) * 4)
	if err != nil {
		panic(err)
	}
	e.buffers = append(e.buffers, buf)
}

// AllocBytes reserves raw device memory tracked with the iteration (used
// by baseline engines for index buffers and the like).
func (e *Engine) AllocBytes(n int64) {
	e.AllocBytesHandle(n)
}

// AllocBytesHandle is AllocBytes returning the buffer so callers can free
// it eagerly (the paper's §5.3 state-map clearing); EndIteration still
// frees it if the caller does not (Free is idempotent). Returns nil when
// no device is attached.
func (e *Engine) AllocBytesHandle(n int64) *device.Buffer {
	if e.Dev == nil {
		return nil
	}
	buf, err := e.Dev.Alloc(n)
	if err != nil {
		panic(err)
	}
	e.buffers = append(e.buffers, buf)
	return buf
}

// EndIteration frees all iteration-scoped device buffers, recycles every
// tensor the iteration drew — the values and gradients of all tape
// nodes — and clears the tape. Parameters (allocated with Param) and
// their gradients persist.
func (e *Engine) EndIteration() {
	for _, b := range e.buffers {
		b.Free()
	}
	e.buffers = e.buffers[:0]
	for i, t := range e.scratch {
		e.pool.Put(t)
		e.scratch[i] = nil
	}
	e.scratch = e.scratch[:0]
	e.tape = nil
}

// CatchOOM runs f, converting a device out-of-memory panic into an error.
// Any other panic is re-raised.
func CatchOOM(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if oom, ok := r.(*device.ErrOOM); ok {
				err = oom
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// Param registers t as a trainable parameter. Its device memory is NOT
// iteration-scoped: it is charged once and kept.
func (e *Engine) Param(t *tensor.Tensor, name string) *Variable {
	if e.Dev != nil {
		e.Dev.MustAlloc(int64(t.Size()) * 4)
	}
	return &Variable{Value: t, RequiresGrad: true, engine: e, name: name}
}

// Input wraps t as a non-trainable input (features, masks). Like Param,
// inputs live for the whole run (the paper moves features to GPU once at
// program start, §6.1).
func (e *Engine) Input(t *tensor.Tensor, name string) *Variable {
	if e.Dev != nil {
		e.Dev.MustAlloc(int64(t.Size()) * 4)
	}
	return &Variable{Value: t, engine: e, name: name}
}

// InputScoped wraps t as a non-trainable input whose device memory is
// iteration-scoped: EndIteration frees it. Mini-batch training re-uploads
// a fresh feature slice every step, so unlike Input the allocation must
// not outlive the step that made it.
func (e *Engine) InputScoped(t *tensor.Tensor, name string) *Variable {
	v := &Variable{Value: t, engine: e, name: name}
	e.alloc(t)
	return v
}

// node creates a tape node for an op output. requiresGrad is inherited
// from any input.
func (e *Engine) node(name string, value *tensor.Tensor, inputs []*Variable, back func(grad *tensor.Tensor)) *Variable {
	rg := false
	for _, in := range inputs {
		if in.RequiresGrad {
			rg = true
			break
		}
	}
	v := &Variable{
		Value:        value,
		RequiresGrad: rg,
		engine:       e,
		inputs:       inputs,
		name:         name,
	}
	if rg {
		v.back = back
	}
	e.alloc(value)
	e.tape = append(e.tape, v)
	return v
}

// accumulate adds g into v.Grad, allocating it on first use: from the
// iteration's pool for a tape node, for keeps for a parameter.
func (v *Variable) accumulate(g *tensor.Tensor) {
	if !v.RequiresGrad {
		return
	}
	if v.Grad == nil {
		if v.back != nil {
			v.Grad = v.engine.Get(v.Value.Shape()...)
		} else {
			v.Grad = tensor.New(v.Value.Shape()...)
		}
		if v.engine != nil {
			v.engine.alloc(v.Grad)
		}
	}
	tensor.AddInPlace(v.Grad, g)
}

// ZeroGrad clears the gradient in place (keeps the allocation).
func (v *Variable) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (size-1) variable. Gradients accumulate into every reachable
// Variable with RequiresGrad. Each node's backward runs only after all of
// its downstream consumers have contributed, which the reverse
// topological order guarantees.
func (e *Engine) Backward(root *Variable) {
	if root.Value.Size() != 1 {
		panic(fmt.Sprintf("nn: Backward root must be scalar, got shape %v", root.Value.Shape()))
	}
	e.visitID++
	order := make([]*Variable, 0, len(e.tape))
	var visit func(v *Variable)
	visit = func(v *Variable) {
		if v.visitID == e.visitID {
			return
		}
		v.visitID = e.visitID
		for _, in := range v.inputs {
			visit(in)
		}
		order = append(order, v)
	}
	visit(root)

	seed := e.Get(root.Value.Shape()...)
	seed.Fill(1)
	root.accumulate(seed)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v.back != nil && v.Grad != nil {
			v.back(v.Grad)
		}
	}
}

// --- device cost helpers -------------------------------------------------

// ChargeDense exposes the dense-kernel cost model to other packages (the
// execution runtime charges un-fused dense units with it).
func (e *Engine) ChargeDense(name string, ops float64, loadB, storeB int64) {
	e.chargeDense(name, ops, loadB, storeB)
}

// chargeDense charges a dense compute kernel executing `ops` scalar
// multiply-adds and moving loadB+storeB bytes. Dense kernels are modelled
// at 50% of peak FP32 throughput (a typical figure for a tuned SGEMM
// outside cuBLAS): the launch is shaped as one full wave of 256-thread
// blocks whose serial path makes the aggregate rate SMs × cores × clock ×
// eff.
func (e *Engine) chargeDense(name string, ops float64, loadB, storeB int64) {
	if e.Dev == nil {
		return
	}
	p := e.Dev.Profile
	const threads = 256
	const efficiency = 0.5
	blocks := p.SMCount * (p.MaxThreadsPerSM / threads)
	if blocks < 1 {
		blocks = 1
	}
	path := ops / (float64(p.SMCount*p.CoresPerSM) * efficiency)
	e.Dev.LaunchKernel(device.Launch{
		Name:               name,
		Blocks:             blocks,
		ThreadsPerBlock:    threads,
		UniformBlockCycles: path,
		LoadBytes:          loadB,
		StoreBytes:         storeB,
	})
}

package exec

import (
	"fmt"

	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/obs"
	"seastar/internal/tensor"
)

// InferEnv is the per-call execution context for forward-only inference.
// Unlike Runtime it carries no autograd engine and no simulated device, so
// any number of InferEnv values can execute the same CompiledUDF
// concurrently: compiled kernels serialize on their own internal lock, the
// pool is mutex-guarded, and everything else here is call-local. The
// serving layer shares one pool across batches.
type InferEnv struct {
	G   *graph.Graph
	Cfg kernels.Config
	// Pool, when non-nil, supplies intermediate storage; every
	// intermediate is returned to it before Infer returns.
	Pool *tensor.Pool
	// Result, when non-nil, supplies the (zeroed) storage of the returned
	// tensor in place of tensor.New, for callers that recycle it themselves.
	Result func(shape ...int) *tensor.Tensor
}

// Infer runs only the forward plan of a compiled UDF over plain tensors —
// no tape, no gradients, no saved-value retention. It returns a freshly
// owned [N, d] output tensor (never aliasing an input or a buffer Infer
// itself returns to the pool).
func (c *CompiledUDF) Infer(env *InferEnv, vfeat, efeat, params map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	if env == nil || env.G == nil {
		return nil, fmt.Errorf("exec: Infer needs a graph")
	}
	cfg := env.Cfg
	if cfg == (kernels.Config{}) {
		cfg = kernels.DefaultConfig()
	}

	b := &kernels.Bindings{
		VFeat:  map[string]*tensor.Tensor{},
		EFeat:  map[string]*tensor.Tensor{},
		Params: map[string]*tensor.Tensor{},
		Inter:  map[*gir.Node]*tensor.Tensor{},
	}
	for _, spec := range c.Inputs {
		var m map[string]*tensor.Tensor
		switch spec.Kind {
		case InVFeat:
			m = vfeat
		case InEFeat:
			m = efeat
		default:
			m = params
		}
		t, ok := m[spec.Key]
		if !ok {
			return nil, fmt.Errorf("exec: missing %s input %q", spec.Kind, spec.Key)
		}
		switch spec.Kind {
		case InVFeat:
			b.VFeat[spec.Key] = t
		case InEFeat:
			b.EFeat[spec.Key] = t
		default:
			b.Params[spec.Key] = t
		}
	}

	get := tensor.New
	if env.Pool != nil {
		var drawn []*tensor.Tensor
		get = func(shape ...int) *tensor.Tensor {
			t := env.Pool.Get(shape...)
			drawn = append(drawn, t)
			return t
		}
		defer func() {
			for _, t := range drawn {
				env.Pool.Put(t)
			}
		}()
	}
	// The result is the caller's to keep, so it alone is never put back.
	result := c.Fwd.Outputs[0]
	newResult := tensor.New
	if env.Result != nil {
		newResult = env.Result
	}
	getFor := func(n *gir.Node) func(shape ...int) *tensor.Tensor {
		if n == result {
			return newResult
		}
		return get
	}
	alloc := func(n *gir.Node) *tensor.Tensor { return getFor(n)(matShape(env.G, n)...) }

	for ui, u := range c.FwdPlan.Units {
		sp := obs.Begin("exec", c.fwdLabels[ui])
		switch u.Kind {
		case fusion.KindSeastar:
			mat := c.fwdMat[u]
			outs := make(map[*gir.Node]*tensor.Tensor, len(mat))
			for _, m := range mat {
				outs[m] = alloc(m)
			}
			if err := c.fwdKern[u].Run(env.G, cfg, b, outs); err != nil {
				return nil, fmt.Errorf("exec: infer unit %d: %w", u.ID, err)
			}
			for n, t := range outs {
				b.Inter[n] = t
			}
		case fusion.KindDense:
			for _, n := range u.Nodes {
				ins := make([]*tensor.Tensor, len(n.Inputs))
				for i, in := range n.Inputs {
					t, err := b.Resolve(in)
					if err != nil {
						return nil, err
					}
					ins[i] = t
				}
				out, err := denseOp(n, ins, getFor(n))
				if err != nil {
					return nil, fmt.Errorf("exec: infer unit %d: %w", u.ID, err)
				}
				b.Inter[n] = out
			}
		default:
			// Parameter-gradient units never appear in a forward plan.
			return nil, fmt.Errorf("exec: infer cannot run %s unit %d", u.Kind, u.ID)
		}
		sp.End()
	}

	out, err := b.Resolve(result)
	if err != nil {
		return nil, err
	}
	if result.Op == gir.OpLeaf {
		out = out.Clone() // a UDF returning a bare input: detach from it
	}
	return out, nil
}

// matShape is the shape of a materialized node's tensor over g: one row
// per edge, per vertex, or the bare parameter shape.
func matShape(g *graph.Graph, n *gir.Node) []int {
	switch n.Type {
	case gir.TypeE:
		return append([]int{g.M}, n.Shape...)
	case gir.TypeP:
		return n.Shape
	default:
		return append([]int{g.N}, n.Shape...)
	}
}

// denseOp evaluates one dense-unit operator into storage drawn from get;
// training and inference share it. It only computes: the training runtime
// charges its engine's device with denseCost.
func denseOp(n *gir.Node, ins []*tensor.Tensor, get func(shape ...int) *tensor.Tensor) (*tensor.Tensor, error) {
	switch n.Op {
	case gir.OpMatMulP:
		return tensor.MatMul(ins[0], ins[1], get(ins[0].Rows(), ins[1].Cols())), nil
	case gir.OpMatMulPT:
		return tensor.MatMulT(ins[0], ins[1], get(ins[0].Rows(), ins[1].Rows())), nil // g @ Wᵀ
	}
	// P-typed elementwise ops: whole-tensor backend kernels (gradient
	// accumulation between parameter-gradient units, scaling, and the
	// like).
	out := get(ins[0].Shape()...)
	switch n.Op {
	case gir.OpAdd:
		tensor.Add(ins[0], ins[1], out)
	case gir.OpSub:
		tensor.Sub(ins[0], ins[1], out)
	case gir.OpMul:
		tensor.Mul(ins[0], ins[1], out)
	case gir.OpDiv:
		tensor.Div(ins[0], ins[1], out)
	case gir.OpNeg:
		tensor.MulScalar(ins[0], -1, out)
	case gir.OpMulConst:
		tensor.MulScalar(ins[0], n.Attr.C, out)
	case gir.OpAddConst:
		tensor.AddScalar(ins[0], n.Attr.C, out)
	case gir.OpExp:
		tensor.Exp(ins[0], out)
	case gir.OpLog:
		tensor.Log(ins[0], out)
	case gir.OpSigmoid:
		tensor.Sigmoid(ins[0], out)
	case gir.OpTanh:
		tensor.Tanh(ins[0], out)
	case gir.OpReLU:
		tensor.ReLU(ins[0], out)
	case gir.OpLeakyReLU:
		tensor.LeakyReLU(ins[0], n.Attr.Slope, out)
	default:
		return nil, fmt.Errorf("exec: dense unit cannot run %s", n.Op)
	}
	return out, nil
}

// denseCost is the simulated cost of one denseOp that produced out, in
// nn.Engine.ChargeDense's terms: kernel name, multiply-adds, bytes loaded
// and stored.
func denseCost(n *gir.Node, ins []*tensor.Tensor, out *tensor.Tensor) (name string, ops float64, loadB, storeB int64) {
	switch n.Op {
	case gir.OpMatMulP, gir.OpMatMulPT:
		name = "dense.matmul"
		if n.Op == gir.OpMatMulPT {
			name = "dense.matmulT"
		}
		return name, float64(ins[0].Rows()) * float64(ins[1].Rows()) * float64(ins[1].Cols()),
			int64(ins[0].Size()+ins[1].Size()) * 4, int64(out.Size()) * 4
	}
	return "dense." + n.Op.String(), float64(out.Size()), int64(out.Size()) * 8, int64(out.Size()) * 4
}

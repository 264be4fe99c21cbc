package exec

import (
	"fmt"

	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// InferEnv is the per-call execution context for forward-only inference.
// Unlike Runtime it carries no autograd engine and no simulated device, so
// any number of InferEnv values can execute the same CompiledUDF
// concurrently: compiled kernels serialize on their own internal lock, the
// pool is mutex-guarded, and everything else here is call-local. The
// serving layer shares one pool across batches.
type InferEnv struct {
	G *graph.Graph
	// Pool, when non-nil, supplies intermediate storage; every
	// intermediate is returned to it before Infer returns.
	Pool *tensor.Pool
	// Result, when non-nil, supplies the (zeroed) storage of the returned
	// tensor in place of tensor.New, for callers that recycle it themselves.
	Result func(shape ...int) *tensor.Tensor
}

// Infer runs only the forward pass of a compiled UDF over plain tensors —
// no tape, no gradients, no saved-value retention. It returns an [N, d]
// output tensor ([D, d] on a block) from env.Result, or a fresh one,
// never aliasing an input or a buffer Infer itself returns to the pool.
func (c *CompiledUDF) Infer(env *InferEnv, vfeat, efeat, params map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	if env == nil || env.G == nil {
		return nil, fmt.Errorf("exec: Infer needs a graph")
	}
	var buf [8]*tensor.Tensor // the ordered inputs stay on the stack: no served plan reads more
	vals, err := ordered(c, buf[:0], vfeat, efeat, params)
	if err != nil {
		return nil, err
	}
	b := c.bind(vals)
	// The result is the caller's to keep, so it alone is never put back.
	result := c.Fwd.DAG.Outputs[0]
	var drawn []*tensor.Tensor
	defer func() {
		for _, t := range drawn {
			env.Pool.Put(t)
		}
	}()
	store := func(n *gir.Node, shape ...int) *tensor.Tensor {
		switch {
		case n == result && env.Result != nil:
			return env.Result(shape...)
		case n == result || env.Pool == nil:
			return tensor.New(shape...)
		}
		t := env.Pool.Get(shape...)
		drawn = append(drawn, t)
		return t
	}
	if err := c.Fwd.run(env.G, b, store, nil, nil, nil); err != nil {
		return nil, err
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

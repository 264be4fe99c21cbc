package nn

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// TestActivationBackwardsParallelBitwise: the backwards of ReLU,
// LeakyReLU, Sigmoid and Tanh run on the parallel elementwise path, and
// their gradient is bit for bit the serial loop's, at a size above the
// elementwise grain, in both SIMD modes. loss = Σ act(x)·w hands each
// backward the upstream gradient w exactly.
func TestActivationBackwardsParallelBitwise(t *testing.T) {
	defer sched.SetMaxProcs(sched.MaxProcs)
	sched.SetMaxProcs(4)
	const n = 3*8192 + 17
	rng := rand.New(rand.NewSource(5))
	xd, wd := make([]float32, n), make([]float32, n)
	for i := range xd {
		xd[i], wd[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	xd[0], xd[1], xd[2] = 0, float32(math.Copysign(0, -1)), float32(math.NaN())
	const slope = 0.2
	sigmoid := func(v float32) float32 { return 1 / (1 + float32(math.Exp(float64(-v)))) }
	tanh := func(v float32) float32 { return float32(math.Tanh(float64(v))) }
	cases := []struct {
		name string
		act  func(e *Engine, x *Variable) *Variable
		grad func(x, g float32) float32 // the serial loop's element
	}{
		{"relu", func(e *Engine, x *Variable) *Variable { return e.ReLU(x) }, func(x, g float32) float32 {
			if x > 0 {
				return g
			}
			return 0
		}},
		{"leakyrelu", func(e *Engine, x *Variable) *Variable { return e.LeakyReLU(x, slope) }, func(x, g float32) float32 {
			if x > 0 {
				return g
			}
			return g * slope
		}},
		{"sigmoid", func(e *Engine, x *Variable) *Variable { return e.Sigmoid(x) }, func(x, g float32) float32 {
			y := sigmoid(x)
			return g * y * (1 - y)
		}},
		{"tanh", func(e *Engine, x *Variable) *Variable { return e.Tanh(x) }, func(x, g float32) float32 {
			y := tanh(x)
			return g * (1 - y*y)
		}},
	}
	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMD(simd)
		for _, tc := range cases {
			e := NewEngine(nil)
			x := e.Param(tensor.FromSlice(append([]float32(nil), xd...), n), "x")
			w := e.Input(tensor.FromSlice(append([]float32(nil), wd...), n), "w")
			e.Backward(e.SumAll(e.Mul(tc.act(e, x), w)))
			for i := range xd {
				got, want := x.Grad.At1(i), tc.grad(xd[i], wd[i])
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("simd=%v %s: grad[%d] = %v (%08x), serial loop %v (%08x)",
						simd, tc.name, i, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
		tensor.SetSIMD(prev)
	}
}

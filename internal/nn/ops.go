package nn

import (
	"seastar/internal/tensor"
)

// bytesOf returns the device footprint of a tensor in bytes.
func bytesOf(t *tensor.Tensor) int64 { return int64(t.Size()) * 4 }

// like draws a zeroed iteration-scoped tensor of t's shape.
func (e *Engine) like(t *tensor.Tensor) *tensor.Tensor { return e.Get(t.Shape()...) }

// MatMul returns a @ b with autograd.
func (e *Engine) MatMul(a, b *Variable) *Variable {
	m, k := a.Value.Rows(), a.Value.Cols()
	n := b.Value.Cols()
	out := tensor.MatMul(a.Value, b.Value, e.Get(m, n))
	e.chargeDense("matmul", float64(m)*float64(k)*float64(n),
		bytesOf(a.Value)+bytesOf(b.Value), bytesOf(out))
	return e.node("matmul", out, []*Variable{a, b}, func(g *tensor.Tensor) {
		if a.RequiresGrad {
			da := tensor.MatMulT(g, b.Value, e.Get(m, k)) // g @ bᵀ
			e.chargeDense("matmul.dA", float64(m)*float64(n)*float64(k),
				bytesOf(g)+bytesOf(b.Value), bytesOf(da))
			a.accumulate(da)
		}
		if b.RequiresGrad {
			db := tensor.TMatMul(a.Value, g, e.Get(k, n)) // aᵀ @ g
			e.chargeDense("matmul.dB", float64(k)*float64(m)*float64(n),
				bytesOf(a.Value)+bytesOf(g), bytesOf(db))
			b.accumulate(db)
		}
	})
}

// chargeEW charges a memory-bound elementwise kernel over n elements
// reading `reads` operands and writing one output.
func (e *Engine) chargeEW(name string, n int, reads int) {
	e.chargeDense(name, float64(n), int64(n*reads)*4, int64(n)*4)
}

// Add returns a + b elementwise.
func (e *Engine) Add(a, b *Variable) *Variable {
	out := tensor.Add(a.Value, b.Value, e.like(a.Value))
	e.chargeEW("add", out.Size(), 2)
	return e.node("add", out, []*Variable{a, b}, func(g *tensor.Tensor) {
		a.accumulate(g)
		b.accumulate(g)
	})
}

// Sub returns a - b elementwise.
func (e *Engine) Sub(a, b *Variable) *Variable {
	out := tensor.Sub(a.Value, b.Value, e.like(a.Value))
	e.chargeEW("sub", out.Size(), 2)
	return e.node("sub", out, []*Variable{a, b}, func(g *tensor.Tensor) {
		a.accumulate(g)
		if b.RequiresGrad {
			b.accumulate(tensor.MulScalar(g, -1, e.like(g)))
		}
	})
}

// Mul returns the Hadamard product a * b.
func (e *Engine) Mul(a, b *Variable) *Variable {
	out := tensor.Mul(a.Value, b.Value, e.like(a.Value))
	e.chargeEW("mul", out.Size(), 2)
	return e.node("mul", out, []*Variable{a, b}, func(g *tensor.Tensor) {
		if a.RequiresGrad {
			a.accumulate(tensor.Mul(g, b.Value, e.like(g)))
		}
		if b.RequiresGrad {
			b.accumulate(tensor.Mul(g, a.Value, e.like(g)))
		}
	})
}

// MulScalar returns a * s.
func (e *Engine) MulScalar(a *Variable, s float32) *Variable {
	out := tensor.MulScalar(a.Value, s, e.like(a.Value))
	e.chargeEW("muls", out.Size(), 1)
	return e.node("muls", out, []*Variable{a}, func(g *tensor.Tensor) {
		a.accumulate(tensor.MulScalar(g, s, e.like(g)))
	})
}

// AddRow adds bias row-vector b to every row of a.
func (e *Engine) AddRow(a, b *Variable) *Variable {
	out := tensor.AddRow(a.Value, b.Value, e.like(a.Value))
	e.chargeEW("bias", out.Size(), 1)
	return e.node("bias", out, []*Variable{a, b}, func(g *tensor.Tensor) {
		a.accumulate(g)
		if b.RequiresGrad {
			rb := tensor.SumRows(g, e.Get(g.Cols()))
			b.accumulate(rb.Reshape(b.Value.Shape()...))
		}
	})
}

// MulColVec scales each row i of a by v[i] (v has one entry per row).
func (e *Engine) MulColVec(a, v *Variable) *Variable {
	out := tensor.MulColVec(a.Value, v.Value, e.like(a.Value))
	e.chargeEW("mulcol", out.Size(), 1)
	return e.node("mulcol", out, []*Variable{a, v}, func(g *tensor.Tensor) {
		if a.RequiresGrad {
			a.accumulate(tensor.MulColVec(g, v.Value, e.like(g)))
		}
		if v.RequiresGrad {
			prod := tensor.Mul(g, a.Value, e.like(g))
			dv := tensor.SumCols(prod, e.Get(g.Rows()))
			v.accumulate(dv.Reshape(v.Value.Shape()...))
		}
	})
}

// Sigmoid applies the logistic function.
func (e *Engine) Sigmoid(a *Variable) *Variable {
	out := tensor.Sigmoid(a.Value, e.like(a.Value))
	e.chargeEW("sigmoid", out.Size(), 1)
	return e.node("sigmoid", out, []*Variable{a}, func(g *tensor.Tensor) {
		a.accumulate(tensor.SigmoidGrad(out, g, e.like(g)))
	})
}

// ReLU applies max(0, x).
func (e *Engine) ReLU(a *Variable) *Variable {
	out := tensor.ReLU(a.Value, e.like(a.Value))
	e.chargeEW("relu", out.Size(), 1)
	return e.node("relu", out, []*Variable{a}, func(g *tensor.Tensor) {
		a.accumulate(tensor.ReLUGrad(a.Value, g, e.like(g)))
	})
}

// LeakyReLU applies x>0 ? x : slope*x.
func (e *Engine) LeakyReLU(a *Variable, slope float32) *Variable {
	out := tensor.LeakyReLU(a.Value, slope, e.like(a.Value))
	e.chargeEW("leakyrelu", out.Size(), 1)
	return e.node("leakyrelu", out, []*Variable{a}, func(g *tensor.Tensor) {
		a.accumulate(tensor.LeakyReLUGrad(a.Value, g, slope, e.like(g)))
	})
}

// Tanh applies the hyperbolic tangent.
func (e *Engine) Tanh(a *Variable) *Variable {
	out := tensor.Tanh(a.Value, e.like(a.Value))
	e.chargeEW("tanh", out.Size(), 1)
	return e.node("tanh", out, []*Variable{a}, func(g *tensor.Tensor) {
		a.accumulate(tensor.TanhGrad(out, g, e.like(g)))
	})
}

// Exp applies e^x.
func (e *Engine) Exp(a *Variable) *Variable {
	out := tensor.Exp(a.Value, e.like(a.Value))
	e.chargeEW("exp", out.Size(), 1)
	return e.node("exp", out, []*Variable{a}, func(g *tensor.Tensor) {
		a.accumulate(tensor.Mul(g, out, e.like(g)))
	})
}

// SumAll reduces a to a scalar.
func (e *Engine) SumAll(a *Variable) *Variable {
	out := tensor.Scalar(tensor.Sum(a.Value))
	e.chargeEW("sumall", a.Value.Size(), 1)
	return e.node("sumall", out, []*Variable{a}, func(g *tensor.Tensor) {
		d := e.like(a.Value)
		d.Fill(g.At1(0))
		a.accumulate(d)
	})
}

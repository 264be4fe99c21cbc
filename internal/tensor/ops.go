package tensor

import (
	"fmt"
	"math"
	"slices"
)

// The ops that training and inference run every iteration take an
// optional trailing destination: Add(a, b, dst) writes into dst instead of
// allocating. dst must be zeroed and of the result's shape, as Pool.Get
// returns it; that is how a caller with a pool keeps op outputs away from
// the garbage collector. The elementwise ops (Add to Div, the scalar ops,
// the activations, AddRow) read an element before they write it, so there
// dst may also be an operand: ReLU(x, x) works in place.

// dstOr returns the caller's destination for a result of the given shape,
// or a new tensor when there is none.
func dstOr(into []*Tensor, shape ...int) *Tensor {
	if len(into) == 0 {
		return New(shape...)
	}
	if len(into) > 1 || !slices.Equal(into[0].shape, shape) {
		panic(fmt.Sprintf("tensor: destination %v for a result of shape %v", into[0].shape, shape))
	}
	return into[0]
}

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor, into ...*Tensor) *Tensor { return elementwise(opAdd, a, b, 0, into) }

// Sub returns a - b elementwise.
func Sub(a, b *Tensor, into ...*Tensor) *Tensor { return elementwise(opSub, a, b, 0, into) }

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor, into ...*Tensor) *Tensor { return elementwise(opMul, a, b, 0, into) }

// Div returns a / b elementwise.
func Div(a, b *Tensor, into ...*Tensor) *Tensor { return elementwise(opDiv, a, b, 0, into) }

// elemOp names one elementwise op of elementwise.
type elemOp uint8

const (
	opAdd elemOp = iota
	opSub
	opMul
	opDiv
	opAddScalar
	opMulScalar
	opExp
	opLog
	opSigmoid
	opTanh
	opReLU
	opLeakyReLU
)

// elementwise returns op applied to every element of a — and of b, nil
// for a unary op — with scalar s, over parallel chunks. The switch runs
// once per chunk, so each chunk is one direct loop with no call per
// element.
func elementwise(op elemOp, a, b *Tensor, s float32, into []*Tensor) *Tensor {
	if b == nil {
		b = a // a unary op reads no y
	} else if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: elementwise op shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := dstOr(into, a.shape...)
	parallelElems(len(out.data), func(lo, hi int) {
		x, y, o := a.data[lo:hi], b.data[lo:hi], out.data[lo:hi]
		switch op {
		case opAdd:
			for i, v := range x {
				o[i] = v + y[i]
			}
		case opSub:
			for i, v := range x {
				o[i] = v - y[i]
			}
		case opMul:
			for i, v := range x {
				o[i] = v * y[i]
			}
		case opDiv:
			for i, v := range x {
				o[i] = v / y[i]
			}
		case opAddScalar:
			for i, v := range x {
				o[i] = v + s
			}
		case opMulScalar:
			for i, v := range x {
				o[i] = v * s
			}
		case opExp:
			for i, v := range x {
				o[i] = float32(math.Exp(float64(v)))
			}
		case opLog:
			for i, v := range x {
				o[i] = float32(math.Log(float64(v)))
			}
		case opSigmoid:
			for i, v := range x {
				o[i] = 1 / (1 + float32(math.Exp(float64(-v))))
			}
		case opTanh:
			for i, v := range x {
				o[i] = float32(math.Tanh(float64(v)))
			}
		case opReLU:
			for i, v := range x {
				if v > 0 {
					o[i] = v
				} else {
					o[i] = 0
				}
			}
		case opLeakyReLU:
			for i, v := range x {
				if v > 0 {
					o[i] = v
				} else {
					o[i] = s * v
				}
			}
		}
	})
	return out
}

// AddInPlace accumulates src into dst.
func AddInPlace(dst, src *Tensor) {
	if !SameShape(dst, src) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", dst.shape, src.shape))
	}
	VecAdd(dst.data, src.data)
}

// AxpyInPlace computes dst += alpha*src.
func AxpyInPlace(dst *Tensor, alpha float32, src *Tensor) {
	if !SameShape(dst, src) {
		panic(fmt.Sprintf("tensor: Axpy shape mismatch %v vs %v", dst.shape, src.shape))
	}
	dd, sd := dst.data, src.data
	for i := range dd {
		dd[i] += alpha * sd[i]
	}
}

// AddScalar returns a + s.
func AddScalar(a *Tensor, s float32, into ...*Tensor) *Tensor {
	return elementwise(opAddScalar, a, nil, s, into)
}

// MulScalar returns a * s.
func MulScalar(a *Tensor, s float32, into ...*Tensor) *Tensor {
	return elementwise(opMulScalar, a, nil, s, into)
}

// AddRow returns m with row vector v (shape [1,C] or [C]) added to every row.
func AddRow(m, v *Tensor, into ...*Tensor) *Tensor {
	m.check2d()
	c := m.shape[1]
	if v.Size() != c {
		panic(fmt.Sprintf("tensor: row broadcast needs %d elems, got shape %v", c, v.shape))
	}
	out := dstOr(into, m.shape...)
	parallelRows(m.shape[0], func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mr, or := m.Row(i), out.Row(i)
			for j := 0; j < c; j++ {
				or[j] = mr[j] + v.data[j]
			}
		}
	})
	return out
}

// MulColVec returns m scaled per row by column vector v (shape [R] or [R,1]):
// out[i,j] = m[i,j] * v[i].
func MulColVec(m, v *Tensor, into ...*Tensor) *Tensor {
	m.check2d()
	r := m.shape[0]
	if v.Size() != r {
		panic(fmt.Sprintf("tensor: col broadcast needs %d elems, got shape %v", r, v.shape))
	}
	out := dstOr(into, m.shape...)
	for i := 0; i < r; i++ {
		s := v.data[i]
		mr, or := m.Row(i), out.Row(i)
		for j := range mr {
			or[j] = s * mr[j]
		}
	}
	return out
}

// Exp returns e^x elementwise.
func Exp(a *Tensor, into ...*Tensor) *Tensor { return elementwise(opExp, a, nil, 0, into) }

// Log returns ln(x) elementwise.
func Log(a *Tensor, into ...*Tensor) *Tensor { return elementwise(opLog, a, nil, 0, into) }

// Sigmoid returns 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor, into ...*Tensor) *Tensor { return elementwise(opSigmoid, a, nil, 0, into) }

// Tanh returns tanh(x) elementwise.
func Tanh(a *Tensor, into ...*Tensor) *Tensor { return elementwise(opTanh, a, nil, 0, into) }

// ReLU returns max(0, x) elementwise, as x > 0 ? x : 0: NaN and -0 give +0.
func ReLU(a *Tensor, into ...*Tensor) *Tensor { return elementwise(opReLU, a, nil, 0, into) }

// LeakyReLU returns x for x>0 and slope*x otherwise.
func LeakyReLU(a *Tensor, slope float32, into ...*Tensor) *Tensor {
	return elementwise(opLeakyReLU, a, nil, slope, into)
}

// GatherRows returns a matrix whose i-th row is m[idx[i]].
func GatherRows(m *Tensor, idx []int32) *Tensor {
	m.check2d()
	c := m.shape[1]
	out := New(len(idx), c)
	for i, id := range idx {
		copy(out.Row(i), m.Row(int(id)))
	}
	return out
}

// AllClose reports whether a and b agree elementwise within tol (absolute
// plus small relative tolerance). Equal elements are close; a NaN or ±Inf
// is close to nothing else, so neither can hide a divergence.
func AllClose(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		x, y := float64(a.data[i]), float64(b.data[i])
		d := absDiff(x, y)
		if math.IsInf(d, 1) || d > tol+tol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference; it is
// +Inf when some unequal pair holds a NaN or ±Inf.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !SameShape(a, b) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i := range a.data {
		m = math.Max(m, absDiff(float64(a.data[i]), float64(b.data[i])))
	}
	return m
}

// absDiff is |x−y|: 0 for equal values, +Inf for an unequal pair holding
// a NaN (whose difference is NaN) or ±Inf.
func absDiff(x, y float64) float64 {
	if x == y {
		return 0
	}
	if d := math.Abs(x - y); !math.IsNaN(d) {
		return d
	}
	return math.Inf(1)
}

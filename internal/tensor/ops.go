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
// Apply and the activations built on it, AddRow) read an element before
// they write it, so there dst may also be an operand: ReLU(x, x) works in
// place.

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
func Add(a, b *Tensor, into ...*Tensor) *Tensor {
	return zip(a, b, into, func(x, y float32) float32 { return x + y })
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor, into ...*Tensor) *Tensor {
	return zip(a, b, into, func(x, y float32) float32 { return x - y })
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor, into ...*Tensor) *Tensor {
	return zip(a, b, into, func(x, y float32) float32 { return x * y })
}

// Div returns a / b elementwise.
func Div(a, b *Tensor, into ...*Tensor) *Tensor {
	return zip(a, b, into, func(x, y float32) float32 { return x / y })
}

func zip(a, b *Tensor, into []*Tensor, f func(x, y float32) float32) *Tensor {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: elementwise op shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := dstOr(into, a.shape...)
	ad, bd, od := a.data, b.data, out.data
	parallelElems(len(od), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = f(ad[i], bd[i])
		}
	})
	return out
}

// AddInPlace accumulates src into dst.
func AddInPlace(dst, src *Tensor) {
	if !SameShape(dst, src) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", dst.shape, src.shape))
	}
	dd, sd := dst.data, src.data
	for i := range dd {
		dd[i] += sd[i]
	}
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
	return a.Apply(func(x float32) float32 { return x + s }, into...)
}

// MulScalar returns a * s.
func MulScalar(a *Tensor, s float32, into ...*Tensor) *Tensor {
	return a.Apply(func(x float32) float32 { return x * s }, into...)
}

// Apply returns f applied to every element.
func (t *Tensor) Apply(f func(float32) float32, into ...*Tensor) *Tensor {
	out := dstOr(into, t.shape...)
	td, od := t.data, out.data
	parallelElems(len(od), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = f(td[i])
		}
	})
	return out
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
func Exp(a *Tensor, into ...*Tensor) *Tensor {
	return a.Apply(func(x float32) float32 { return float32(math.Exp(float64(x))) }, into...)
}

// Log returns ln(x) elementwise.
func Log(a *Tensor, into ...*Tensor) *Tensor {
	return a.Apply(func(x float32) float32 { return float32(math.Log(float64(x))) }, into...)
}

// Sigmoid returns 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor, into ...*Tensor) *Tensor {
	return a.Apply(func(x float32) float32 { return 1 / (1 + float32(math.Exp(float64(-x)))) }, into...)
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Tensor, into ...*Tensor) *Tensor {
	return a.Apply(func(x float32) float32 { return float32(math.Tanh(float64(x))) }, into...)
}

// ReLU returns max(0, x) elementwise.
func ReLU(a *Tensor, into ...*Tensor) *Tensor {
	return a.Apply(func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	}, into...)
}

// LeakyReLU returns x for x>0 and slope*x otherwise.
func LeakyReLU(a *Tensor, slope float32, into ...*Tensor) *Tensor {
	return a.Apply(func(x float32) float32 {
		if x > 0 {
			return x
		}
		return slope * x
	}, into...)
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

// Package tensor implements dense float32 tensors and the numeric
// primitives required by the Seastar reproduction: matrix products,
// broadcast arithmetic, activations, reductions, and row gather/scatter.
//
// Tensors are row-major. Shape errors are programming errors and panic,
// matching the convention of Go numeric libraries; data-dependent errors
// (e.g. allocation failures in the device simulator) are returned as error
// values by the packages that own them.
package tensor

import (
	"fmt"
	"slices"
	"strings"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// volume returns the element count of shape.
func volume(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, volume(shape))}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	if n := volume(shape); n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Scalar returns a 1-element tensor holding v.
func Scalar(v float32) *Tensor { return FromSlice([]float32{v}, 1) }

// Ones allocates a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full allocates a tensor filled with v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(v)
	return t
}

// Shape returns the tensor's shape. The caller must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rows returns the size of the first dimension of a matrix.
func (t *Tensor) Rows() int {
	t.check2d()
	return t.shape[0]
}

// Cols returns the size of the second dimension of a matrix.
func (t *Tensor) Cols() int {
	t.check2d()
	return t.shape[1]
}

func (t *Tensor) check2d() {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: want 2-D, have shape %v", t.shape))
	}
}

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at (i, j) of a matrix.
func (t *Tensor) At(i, j int) float32 {
	t.check2d()
	return t.data[i*t.shape[1]+j]
}

// Set stores v at (i, j) of a matrix.
func (t *Tensor) Set(i, j int, v float32) {
	t.check2d()
	t.data[i*t.shape[1]+j] = v
}

// At1 returns element i of a vector (any shape, linear index).
func (t *Tensor) At1(i int) float32 { return t.data[i] }

// Set1 stores v at linear index i.
func (t *Tensor) Set1(i int, v float32) { t.data[i] = v }

// Row returns the i-th row of a matrix as a slice view (not a copy).
func (t *Tensor) Row(i int) []float32 {
	t.check2d()
	c := t.shape[1]
	return t.data[i*c : (i+1)*c]
}

// TopRows returns a view of t's first r rows (slices of its first
// dimension), sharing its storage.
func (t *Tensor) TopRows(r int) *Tensor {
	if r == t.shape[0] {
		return t
	}
	shape := append([]int{r}, t.shape[1:]...)
	return &Tensor{shape: shape, data: t.data[:r*(len(t.data)/t.shape[0])]}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return FromSlice(slices.Clone(t.data), t.shape...)
}

// CopyFrom copies src's data into t. Shapes must match in volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a new tensor sharing data with t but with a new shape of
// identical volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if volume(shape) != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Zero fills the tensor with zeros in place.
func (t *Tensor) Zero() { clear(t.data) }

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool { return slices.Equal(a.shape, b.shape) }

// String renders small tensors fully and large ones abbreviated.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := min(n, 8)
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if show < n {
		fmt.Fprintf(&b, ", ... (%d total)", n)
	}
	b.WriteString("]")
	return b.String()
}

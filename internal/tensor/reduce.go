package tensor

import "math"

// Sum returns the sum of all elements.
func Sum(t *Tensor) float32 {
	var s float32
	for _, v := range t.data {
		s += v
	}
	return s
}

// SumRows reduces a matrix over its rows, returning a [C] vector:
// out[j] = Σ_i m[i,j].
func SumRows(m *Tensor, into ...*Tensor) *Tensor {
	m.check2d()
	r, c := m.shape[0], m.shape[1]
	out := dstOr(into, c)
	for i := 0; i < r; i++ {
		VecAdd(out.data, m.Row(i))
	}
	return out
}

// SumCols reduces a matrix over its columns, returning an [R] vector:
// out[i] = Σ_j m[i,j].
func SumCols(m *Tensor, into ...*Tensor) *Tensor {
	m.check2d()
	r := m.shape[0]
	out := dstOr(into, r)
	for i := 0; i < r; i++ {
		var s float32
		for _, v := range m.Row(i) {
			s += v
		}
		out.data[i] = s
	}
	return out
}

// ArgMaxRows returns, for each row of a matrix, the column of its maximum.
func ArgMaxRows(m *Tensor) []int {
	m.check2d()
	r := m.shape[0]
	out := make([]int, r)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		best, bestJ := float32(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		out[i] = bestJ
	}
	return out
}

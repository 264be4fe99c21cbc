package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// transpose returns the matrix transpose of a 2-D tensor.
func transpose(m *Tensor) *Tensor {
	r, c := m.Rows(), m.Cols()
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j, v := range m.Row(i) {
			out.data[j*r+i] = v
		}
	}
	return out
}

func TestNewZeroFilled(t *testing.T) {
	a := New(3, 4)
	if a.Rows() != 3 || a.Cols() != 4 || a.Size() != 12 {
		t.Fatalf("shape: got %v size %d", a.Shape(), a.Size())
	}
	for i := 0; i < a.Size(); i++ {
		if a.At1(i) != 0 {
			t.Fatalf("element %d not zero", i)
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[0] = 42
	if a.At(0, 0) != 42 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSlicePanicsOnVolumeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRow(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 7)
	if a.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	r := a.Row(1)
	r[0] = 5
	if a.At(1, 0) != 5 {
		t.Fatal("Row must be a view")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(0, 1, 42)
	if a.At(0, 1) != 42 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	a.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b); !AllClose(got, Full(5, 2, 2), 1e-6) {
		t.Fatalf("Add: %v", got)
	}
	if got := Sub(a, b); got.At(0, 0) != -3 || got.At(1, 1) != 3 {
		t.Fatalf("Sub: %v", got)
	}
	if got := Mul(a, b); got.At(0, 0) != 4 || got.At(0, 1) != 6 {
		t.Fatalf("Mul: %v", got)
	}
	if got := Div(a, b); math.Abs(float64(got.At(0, 1))-2.0/3.0) > 1e-6 {
		t.Fatalf("Div: %v", got)
	}
}

func TestElementwiseShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestBroadcastRowAndCol(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	got := AddRow(m, v)
	want := FromSlice([]float32{11, 22, 33, 14, 25, 36}, 2, 3)
	if !AllClose(got, want, 1e-6) {
		t.Fatalf("AddRow: %v", got)
	}
	cv := FromSlice([]float32{2, 10}, 2)
	got = MulColVec(m, cv)
	if got.At(0, 2) != 6 || got.At(1, 0) != 40 {
		t.Fatalf("MulColVec: %v", got)
	}
}

func TestActivations(t *testing.T) {
	a := FromSlice([]float32{-2, 0, 2}, 3)
	lr := LeakyReLU(a, 0.1)
	if math.Abs(float64(lr.At1(0))+0.2) > 1e-6 || lr.At1(2) != 2 {
		t.Fatalf("LeakyReLU: %v", lr)
	}
	re := ReLU(a)
	if re.At1(0) != 0 || re.At1(2) != 2 {
		t.Fatalf("ReLU: %v", re)
	}
	sg := Sigmoid(FromSlice([]float32{0}, 1))
	if math.Abs(float64(sg.At1(0))-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0): %v", sg)
	}
	ex := Exp(FromSlice([]float32{1}, 1))
	if math.Abs(float64(ex.At1(0))-math.E) > 1e-5 {
		t.Fatalf("Exp(1): %v", ex)
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := transpose(m)
	if got.Rows() != 3 || got.Cols() != 2 || got.At(2, 1) != 6 || got.At(0, 1) != 4 {
		t.Fatalf("transpose: %v", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{19, 22, 43, 50}, 2, 2)
	if !AllClose(got, want, 1e-6) {
		t.Fatalf("MatMul: %v", got)
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 7, 5)
	b := Randn(rng, 1, 5, 9)
	ref := MatMul(a, b)
	if got := MatMulT(a, transpose(b)); !AllClose(got, ref, 1e-4) {
		t.Fatal("MatMulT(a, bᵀ) != a@b")
	}
	if got := TMatMul(transpose(a), b); !AllClose(got, ref, 1e-4) {
		t.Fatal("TMatMul(aᵀ, b) != a@b")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Large enough to trigger the parallel path.
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 300, 40)
	b := Randn(rng, 1, 40, 30)
	got := MatMul(a, b)
	// Serial reference.
	want := New(300, 30)
	for i := 0; i < 300; i++ {
		for j := 0; j < 30; j++ {
			var s float32
			for p := 0; p < 40; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			want.Set(i, j, s)
		}
	}
	if !AllClose(got, want, 1e-3) {
		t.Fatalf("parallel MatMul diverges: max diff %g", MaxAbsDiff(got, want))
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if Sum(m) != 21 {
		t.Fatalf("Sum: %v", Sum(m))
	}
	sr := SumRows(m)
	if sr.At1(0) != 5 || sr.At1(2) != 9 {
		t.Fatalf("SumRows: %v", sr)
	}
	sc := SumCols(m)
	if sc.At1(0) != 6 || sc.At1(1) != 15 {
		t.Fatalf("SumCols: %v", sc)
	}
	am := ArgMaxRows(m)
	if am[0] != 2 || am[1] != 2 {
		t.Fatalf("ArgMaxRows: %v", am)
	}
}

func TestGatherScatter(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	g := GatherRows(m, []int32{2, 0, 2})
	if g.At(0, 0) != 5 || g.At(1, 1) != 2 || g.At(2, 1) != 6 {
		t.Fatalf("GatherRows: %v", g)
	}
}

func TestAxpyAndScale(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	AxpyInPlace(a, 0.5, b)
	if a.At1(0) != 6 || a.At1(1) != 12 {
		t.Fatalf("Axpy: %v", a)
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1.0001, 2}, 2)
	if !AllClose(a, b, 1e-3) {
		t.Fatal("AllClose too strict")
	}
	if AllClose(a, b, 1e-7) {
		t.Fatal("AllClose too loose")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.0001) > 1e-5 {
		t.Fatalf("MaxAbsDiff: %v", d)
	}
	if AllClose(a, New(3), 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
	// A NaN or ±Inf is close only to an equal value, and MaxAbsDiff
	// reports any other such pair as +Inf.
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, c := range []struct {
		x, y  float32
		close bool
		diff  float64
	}{
		{nan, 0, false, math.Inf(1)},
		{nan, nan, false, math.Inf(1)},
		{inf, 1, false, math.Inf(1)},
		{inf, -inf, false, math.Inf(1)},
		{inf, inf, true, 0},
		{-inf, -inf, true, 0},
	} {
		x, y := FromSlice([]float32{c.x}, 1), FromSlice([]float32{c.y}, 1)
		if AllClose(x, y, 1e-4) != c.close || AllClose(y, x, 1e-4) != c.close {
			t.Errorf("AllClose(%v, %v) = %v, want %v", c.x, c.y, !c.close, c.close)
		}
		if d := MaxAbsDiff(x, y); d != c.diff {
			t.Errorf("MaxAbsDiff(%v, %v) = %v, want %v", c.x, c.y, d, c.diff)
		}
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := Randn(rng, 2, 1000)
	// Mean ≈ 0, std ≈ 2 within loose bounds.
	if m := float64(Sum(r)) / 1000; math.Abs(m) > 0.3 {
		t.Fatalf("Randn mean too far from 0: %v", m)
	}
	u := Uniform(rng, -1, 1, 1000)
	for _, v := range u.data {
		if v < -1 || v > 1 {
			t.Fatal("Uniform out of range")
		}
	}
	x := XavierUniform(rng, 16, 8)
	l := float32(math.Sqrt(6.0 / 24.0))
	for _, v := range x.data {
		if v < -l || v > l {
			t.Fatal("Xavier out of range")
		}
	}
	if x.Rows() != 16 || x.Cols() != 8 {
		t.Fatal("Xavier shape")
	}
}

func TestXavierPanicsOnBadFan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	XavierUniform(rand.New(rand.NewSource(1)), 0, 4)
}

func TestStringAbbreviation(t *testing.T) {
	s := New(100).String()
	if len(s) == 0 || s[len(s)-1] != ']' {
		t.Fatalf("String: %q", s)
	}
}

// TestOpsIntoDestination: with a destination (as Pool.Get returns one, so
// with spare capacity behind it) every op returns that tensor holding
// bitwise what it would have allocated; a destination of another shape is
// a bug and panics.
func TestOpsIntoDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := Randn(rng, 1, 70, 40), Randn(rng, 1, 70, 40)
	w, row, col := Randn(rng, 1, 40, 24), Randn(rng, 1, 40), Randn(rng, 1, 70)
	pos := AddScalar(Mul(a, a), 1)
	p := NewPool()
	ops := map[string]func(into ...*Tensor) *Tensor{
		"Add":       func(into ...*Tensor) *Tensor { return Add(a, b, into...) },
		"Sub":       func(into ...*Tensor) *Tensor { return Sub(a, b, into...) },
		"Mul":       func(into ...*Tensor) *Tensor { return Mul(a, b, into...) },
		"Div":       func(into ...*Tensor) *Tensor { return Div(a, pos, into...) },
		"AddScalar": func(into ...*Tensor) *Tensor { return AddScalar(a, 3, into...) },
		"MulScalar": func(into ...*Tensor) *Tensor { return MulScalar(a, -2, into...) },
		"AddRow":    func(into ...*Tensor) *Tensor { return AddRow(a, row, into...) },
		"MulColVec": func(into ...*Tensor) *Tensor { return MulColVec(a, col, into...) },
		"Exp":       func(into ...*Tensor) *Tensor { return Exp(a, into...) },
		"Log":       func(into ...*Tensor) *Tensor { return Log(pos, into...) },
		"Sigmoid":   func(into ...*Tensor) *Tensor { return Sigmoid(a, into...) },
		"Tanh":      func(into ...*Tensor) *Tensor { return Tanh(a, into...) },
		"ReLU":      func(into ...*Tensor) *Tensor { return ReLU(a, into...) },
		"LeakyReLU": func(into ...*Tensor) *Tensor { return LeakyReLU(a, 0.2, into...) },
		"MatMul":    func(into ...*Tensor) *Tensor { return MatMul(a, w, into...) },
		"MatMulT":   func(into ...*Tensor) *Tensor { return MatMulT(a, b, into...) },
		"TMatMul":   func(into ...*Tensor) *Tensor { return TMatMul(a, b, into...) },
		"SumRows":   func(into ...*Tensor) *Tensor { return SumRows(a, into...) },
		"SumCols":   func(into ...*Tensor) *Tensor { return SumCols(a, into...) },
	}
	for name, op := range ops {
		want := op()
		dst := p.Get(want.Shape()...)
		got := op(dst)
		if got != dst {
			t.Errorf("%s did not return its destination", name)
		}
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Errorf("%s into a destination: element %d is %v, want %v", name, i, got.Data()[i], v)
				break
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a destination of the wrong shape", name)
				}
			}()
			op(New(3, 3, 3))
		}()
	}
}

// TestElementwiseOpsInPlace: the elementwise ops accept an operand as
// their destination (serving applies bias and activation in place) and
// compute bitwise what they would have allocated.
func TestElementwiseOpsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b, row := Randn(rng, 1, 70, 40), Randn(rng, 1, 40)
	ops := map[string]func(x *Tensor, into ...*Tensor) *Tensor{
		"Add":     func(x *Tensor, into ...*Tensor) *Tensor { return Add(x, b, into...) },
		"AddRow":  func(x *Tensor, into ...*Tensor) *Tensor { return AddRow(x, row, into...) },
		"Sigmoid": func(x *Tensor, into ...*Tensor) *Tensor { return Sigmoid(x, into...) },
		"ReLU":    func(x *Tensor, into ...*Tensor) *Tensor { return ReLU(x, into...) },
	}
	for name, op := range ops {
		x := Randn(rng, 1, 70, 40)
		want := op(x)
		if got := op(x, x); got != x || !slices.Equal(got.Data(), want.Data()) {
			t.Errorf("%s in place differs from %s into a new tensor", name, name)
		}
	}
}

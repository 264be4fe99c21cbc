package nn

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/tensor"
)

// numericalGrad estimates d loss / d param[i] by central differences.
// build must construct the full forward graph from scratch and return the
// scalar loss variable.
func numericalGrad(t *testing.T, param *tensor.Tensor, build func() float32) *tensor.Tensor {
	t.Helper()
	const eps = 1e-3
	g := tensor.New(param.Shape()...)
	for i := 0; i < param.Size(); i++ {
		orig := param.At1(i)
		param.Set1(i, orig+eps)
		up := build()
		param.Set1(i, orig-eps)
		down := build()
		param.Set1(i, orig)
		g.Set1(i, (up-down)/(2*eps))
	}
	return g
}

func gradsClose(t *testing.T, name string, analytic, numeric *tensor.Tensor) {
	t.Helper()
	if analytic == nil {
		t.Fatalf("%s: no analytic gradient", name)
	}
	for i := 0; i < analytic.Size(); i++ {
		a, n := float64(analytic.At1(i)), float64(numeric.At1(i))
		diff := math.Abs(a - n)
		scale := math.Max(math.Abs(a), math.Abs(n)) + 1e-3
		if diff/scale > 0.1 {
			t.Fatalf("%s: grad[%d] analytic %v vs numeric %v", name, i, a, n)
		}
	}
}

func TestBackwardMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xT := tensor.Randn(rng, 1, 4, 3)
	wT := tensor.Randn(rng, 1, 3, 2)

	e := NewEngine(nil)
	x := e.Input(xT, "x")
	w := e.Param(wT, "w")
	loss := e.SumAll(e.Sigmoid(e.MatMul(x, w)))
	e.Backward(loss)

	numeric := numericalGrad(t, wT, func() float32 {
		e2 := NewEngine(nil)
		l := e2.SumAll(e2.Sigmoid(e2.MatMul(e2.Input(xT, "x"), e2.Param(wT, "w"))))
		return l.Value.At1(0)
	})
	gradsClose(t, "matmul-sigmoid", w.Grad, numeric)
}

func TestBackwardElementwiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	aT := tensor.Randn(rng, 1, 3, 3)
	bT := tensor.Randn(rng, 1, 3, 3)

	build := func(e *Engine) *Variable {
		a := e.Param(aT, "a")
		b := e.Param(bT, "b")
		y := e.Mul(e.Add(a, b), e.Sub(a, b)) // a² - b²
		y = e.LeakyReLU(y, 0.2)
		y = e.Exp(e.MulScalar(y, 0.1))
		return e.SumAll(y)
	}
	e := NewEngine(nil)
	// Keep handles to the params of THIS graph.
	a := e.Param(aT, "a")
	b := e.Param(bT, "b")
	y := e.Mul(e.Add(a, b), e.Sub(a, b))
	y = e.LeakyReLU(y, 0.2)
	y = e.Exp(e.MulScalar(y, 0.1))
	loss := e.SumAll(y)
	e.Backward(loss)

	numA := numericalGrad(t, aT, func() float32 { return build(NewEngine(nil)).Value.At1(0) })
	gradsClose(t, "elementwise dA", a.Grad, numA)
	numB := numericalGrad(t, bT, func() float32 { return build(NewEngine(nil)).Value.At1(0) })
	gradsClose(t, "elementwise dB", b.Grad, numB)
}

func TestBackwardBiasAndColVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xT := tensor.Randn(rng, 1, 4, 3)
	bT := tensor.Randn(rng, 1, 3)
	vT := tensor.Randn(rng, 1, 4)

	build := func() (*Engine, *Variable, *Variable, *Variable) {
		e := NewEngine(nil)
		x := e.Input(xT, "x")
		b := e.Param(bT, "b")
		v := e.Param(vT, "v")
		y := e.MulColVec(e.AddRow(x, b), v)
		return e, e.SumAll(y), b, v
	}
	e, loss, b, v := build()
	e.Backward(loss)

	numB := numericalGrad(t, bT, func() float32 { _, l, _, _ := build(); return l.Value.At1(0) })
	gradsClose(t, "bias", b.Grad, numB)
	numV := numericalGrad(t, vT, func() float32 { _, l, _, _ := build(); return l.Value.At1(0) })
	gradsClose(t, "colvec", v.Grad, numV)
}

func TestBackwardReLU(t *testing.T) {
	xT := tensor.FromSlice([]float32{-1, 0.5, 2, -3}, 2, 2)
	e := NewEngine(nil)
	x := e.Param(xT, "x")
	loss := e.SumAll(e.ReLU(x))
	e.Backward(loss)
	want := []float32{0, 1, 1, 0}
	for i, w := range want {
		if x.Grad.At1(i) != w {
			t.Fatalf("relu grad[%d] = %v, want %v", i, x.Grad.At1(i), w)
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lT := tensor.Randn(rng, 1, 5, 3)
	labels := []int{0, 2, 1, 2, 0}
	mask := []bool{true, true, false, true, false}

	e := NewEngine(nil)
	l := e.Param(lT, "logits")
	loss := e.CrossEntropyMasked(l, labels, mask)
	e.Backward(loss)

	numeric := numericalGrad(t, lT, func() float32 {
		e2 := NewEngine(nil)
		return e2.CrossEntropyMasked(e2.Param(lT, "l"), labels, mask).Value.At1(0)
	})
	gradsClose(t, "cross-entropy", l.Grad, numeric)

	// Unmasked rows must have zero gradient.
	for j := 0; j < 3; j++ {
		if l.Grad.At(2, j) != 0 || l.Grad.At(4, j) != 0 {
			t.Fatal("masked-out rows received gradient")
		}
	}
}

// softmax64 is row i of m's softmax and log-sum-exp, in float64.
func softmax64(m *tensor.Tensor, i int) ([]float64, float64) {
	row := m.Row(i)
	mx := math.Inf(-1)
	for _, x := range row {
		mx = math.Max(mx, float64(x))
	}
	p := make([]float64, len(row))
	var sum float64
	for j, x := range row {
		p[j] = math.Exp(float64(x) - mx)
		sum += p[j]
	}
	for j := range p {
		p[j] /= sum
	}
	return p, mx + math.Log(sum)
}

// TestCrossEntropyReadsOnlyMaskedRows: the loss equals the mean of
// lse − logit[label] over the masked rows, computed in float64 here, and
// NaN/±Inf in the rows outside the mask change neither the loss nor the
// gradient by a bit.
func TestCrossEntropyReadsOnlyMaskedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, c = 40, 5
	clean := tensor.Randn(rng, 1, n, c)
	labels := make([]int, n)
	mask := make([]bool, n)
	for i := range labels {
		labels[i] = rng.Intn(c)
		mask[i] = i%3 == 0
	}
	dirty := clean.Clone()
	poison := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := 0; i < n; i++ {
		if !mask[i] {
			for j := 0; j < c; j++ {
				dirty.Set(i, j, poison[(i+j)%len(poison)])
			}
		}
	}

	run := func(lT *tensor.Tensor) (float32, *tensor.Tensor) {
		e := NewEngine(nil)
		l := e.Param(lT, "logits")
		loss := e.CrossEntropyMasked(l, labels, mask)
		e.Backward(loss)
		return loss.Value.At1(0), l.Grad.Clone()
	}
	lossClean, gradClean := run(clean)
	lossDirty, gradDirty := run(dirty)

	var want float64
	count := 0
	for i := 0; i < n; i++ {
		if mask[i] {
			_, lse := softmax64(clean, i)
			want += lse - float64(clean.At(i, labels[i]))
			count++
		}
	}
	want /= float64(count)
	if d := math.Abs(float64(lossClean) - want); d > 1e-6*math.Max(1, want) {
		t.Fatalf("loss %v, float64 definition %v", lossClean, want)
	}
	if math.Float32bits(lossDirty) != math.Float32bits(lossClean) {
		t.Fatalf("unscored rows moved the loss: %v vs %v", lossDirty, lossClean)
	}
	for i, v := range gradClean.Data() {
		if math.Float32bits(gradDirty.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("unscored rows moved gradient element %d: %v vs %v", i, gradDirty.Data()[i], v)
		}
	}
}

// TestCrossEntropyBackwardIsSoftmaxMinusOnehot: the logits gradient is
// scale·(softmax − onehot) on every scored row, scale being the upstream
// gradient over the scored-row count, so each such row sums to ≈ 0; every
// other row is exactly zero. Wide-ranged logits, a nil mask and a scaled
// upstream gradient included.
func TestCrossEntropyBackwardIsSoftmaxMinusOnehot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, c = 30, 7
	for _, tc := range []struct {
		name     string
		spread   float64
		upstream float32
		masked   bool
	}{
		{"masked", 1, 1, true},
		{"all-rows", 1, 1, false},
		{"wide", 40, 1, true},
		{"scaled", 3, 2.5, false},
	} {
		logits := tensor.Randn(rng, tc.spread, n, c)
		labels := make([]int, n)
		var mask []bool
		if tc.masked {
			mask = make([]bool, n)
		}
		count := 0
		for i := range labels {
			labels[i] = rng.Intn(c)
			if mask != nil {
				mask[i] = rng.Intn(2) == 0
			}
			if mask == nil || mask[i] {
				count++
			}
		}
		e := NewEngine(nil)
		l := e.Param(logits, "logits")
		loss := e.MulScalar(e.CrossEntropyMasked(l, labels, mask), tc.upstream)
		e.Backward(loss)
		scale := float64(tc.upstream) / float64(count)
		for i := 0; i < n; i++ {
			g := l.Grad.Row(i)
			if mask != nil && !mask[i] {
				for j, x := range g {
					if x != 0 {
						t.Fatalf("%s: unscored row %d has gradient %v at %d", tc.name, i, x, j)
					}
				}
				continue
			}
			p, _ := softmax64(logits, i)
			var sum float64
			for j, x := range g {
				want := p[j]
				if j == labels[i] {
					want--
				}
				want *= scale
				if d := math.Abs(float64(x) - want); d > 1e-6*scale {
					t.Fatalf("%s: gradient[%d,%d] = %v, want %v", tc.name, i, j, x, want)
				}
				sum += float64(x)
			}
			if math.Abs(sum) > 1e-6*scale*c {
				t.Fatalf("%s: row %d's gradient sums to %v, want ≈ 0", tc.name, i, sum)
			}
		}
	}
}

func TestCrossEntropyPanics(t *testing.T) {
	e := NewEngine(nil)
	l := e.Param(tensor.New(2, 2), "l")
	for _, c := range []struct {
		labels []int
		mask   []bool
	}{
		{[]int{0}, []bool{true, true}},
		{[]int{0, 1}, []bool{false, false}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			e.CrossEntropyMasked(l, c.labels, c.mask)
		}()
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		0.9, 0.1,
		0.2, 0.8,
		0.7, 0.3,
	}, 3, 2)
	labels := []int{0, 1, 1}
	acc := Accuracy(logits, labels, []bool{true, true, true})
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Fatalf("accuracy %v", acc)
	}
	if Accuracy(logits, labels, []bool{false, false, false}) != 0 {
		t.Fatal("empty mask accuracy must be 0")
	}
}

func TestGradAccumulationAcrossTwoUses(t *testing.T) {
	// x used twice: grad must be the sum of both paths.
	xT := tensor.FromSlice([]float32{2}, 1, 1)
	e := NewEngine(nil)
	x := e.Param(xT, "x")
	loss := e.SumAll(e.Mul(x, x)) // d/dx x² = 2x = 4
	e.Backward(loss)
	if x.Grad.At1(0) != 4 {
		t.Fatalf("grad %v, want 4", x.Grad.At1(0))
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	e := NewEngine(nil)
	x := e.Param(tensor.New(2, 2), "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Backward(x)
}

func TestSGDStep(t *testing.T) {
	e := NewEngine(nil)
	p := e.Param(tensor.FromSlice([]float32{1, 2}, 2), "p")
	p.Grad = tensor.FromSlice([]float32{0.5, -0.5}, 2)
	opt := NewSGD([]*Variable{p}, 0.1)
	opt.Step()
	if math.Abs(float64(p.Value.At1(0))-0.95) > 1e-6 || math.Abs(float64(p.Value.At1(1))-2.05) > 1e-6 {
		t.Fatalf("SGD step: %v", p.Value)
	}
	if p.Grad.At1(0) != 0 {
		t.Fatal("SGD must zero gradients")
	}
}

func TestAdamConverges(t *testing.T) {
	// Minimize (w - 3)² with Adam; should approach 3.
	e := NewEngine(nil)
	w := e.Param(tensor.FromSlice([]float32{0}, 1, 1), "w")
	opt := NewAdam([]*Variable{w}, 0.1)
	target := tensor.FromSlice([]float32{3}, 1, 1)
	for i := 0; i < 300; i++ {
		tv := e.Input(target, "t")
		d := e.Sub(w, tv)
		loss := e.SumAll(e.Mul(d, d))
		e.Backward(loss)
		opt.Step()
		e.EndIteration()
	}
	if math.Abs(float64(w.Value.At1(0))-3) > 0.05 {
		t.Fatalf("Adam did not converge: w=%v", w.Value.At1(0))
	}
}

func TestEngineChargesDevice(t *testing.T) {
	dev := device.New(device.V100)
	e := NewEngine(dev)
	rng := rand.New(rand.NewSource(7))
	x := e.Input(tensor.Randn(rng, 1, 64, 32), "x")
	w := e.Param(tensor.Randn(rng, 1, 32, 16), "w")
	if dev.CurrentBytes() == 0 {
		t.Fatal("inputs/params must consume device memory")
	}
	before := dev.ElapsedNs()
	loss := e.SumAll(e.MatMul(x, w))
	e.Backward(loss)
	if dev.ElapsedNs() <= before {
		t.Fatal("ops must advance the simulated clock")
	}
	mid := dev.CurrentBytes()
	e.EndIteration()
	if dev.CurrentBytes() >= mid {
		t.Fatal("EndIteration must free iteration buffers")
	}
	if dev.CurrentBytes() == 0 {
		t.Fatal("params must survive EndIteration")
	}
}

func TestCatchOOM(t *testing.T) {
	dev := device.New(device.Profile{Name: "tiny", GlobalMemBytes: 64})
	e := NewEngine(dev)
	err := CatchOOM(func() {
		e.Input(tensor.New(1024), "big")
	})
	if err == nil {
		t.Fatal("expected OOM error")
	}
	// Non-OOM panics must propagate.
	defer func() {
		if recover() == nil {
			t.Fatal("non-OOM panic swallowed")
		}
	}()
	_ = CatchOOM(func() { panic("boom") })
}

func TestCustomFunction(t *testing.T) {
	// A custom square function: y = x², dy = 2x·g.
	sq := &squareFn{}
	e := NewEngine(nil)
	x := e.Param(tensor.FromSlice([]float32{3, -2}, 2), "x")
	y := e.Apply(sq, "square", x)
	if y.Value.At1(0) != 9 || y.Value.At1(1) != 4 {
		t.Fatalf("square forward: %v", y.Value)
	}
	loss := e.SumAll(y)
	e.Backward(loss)
	if x.Grad.At1(0) != 6 || x.Grad.At1(1) != -4 {
		t.Fatalf("square backward: %v", x.Grad)
	}
}

type squareFn struct{}

func (squareFn) Forward(ctx *FuncCtx, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	ctx.SaveRef("x", x)
	return tensor.Mul(x, x)
}

func (squareFn) Backward(ctx *FuncCtx, g *tensor.Tensor) []*tensor.Tensor {
	x := ctx.Saved("x")
	return []*tensor.Tensor{tensor.MulScalar(tensor.Mul(x, g), 2)}
}

func TestFuncCtxSavedPanicsOnMissingKey(t *testing.T) {
	ctx := &FuncCtx{Engine: NewEngine(nil)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.Saved("nope")
}

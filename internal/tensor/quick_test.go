package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randMat builds a small random matrix from a quick-provided seed.
func randMat(seed int64, r, c int) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	return Randn(rng, 1, r, c)
}

func qcfg() *quick.Config {
	return &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(99))}
}

func dims(a, b uint8) (int, int) { return int(a%7) + 1, int(b%7) + 1 }

func TestQuickAddCommutative(t *testing.T) {
	f := func(seed int64, r, c uint8) bool {
		m, n := dims(r, c)
		a, b := randMat(seed, m, n), randMat(seed+1, m, n)
		return AllClose(Add(a, b), Add(b, a), 1e-6)
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64, r, c uint8) bool {
		m, n := dims(r, c)
		a, b, cc := randMat(seed, m, n), randMat(seed+1, m, n), randMat(seed+2, m, n)
		lhs := Mul(a, Add(b, cc))
		rhs := Add(Mul(a, b), Mul(a, cc))
		return AllClose(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64, r, c uint8) bool {
		m, n := dims(r, c)
		a := randMat(seed, m, n)
		return AllClose(transpose(transpose(a)), a, 0)
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatMulTransposeIdentity(t *testing.T) {
	// (A B)ᵀ = Bᵀ Aᵀ
	f := func(seed int64, r, k, c uint8) bool {
		m := int(r%5) + 1
		p := int(k%5) + 1
		n := int(c%5) + 1
		a, b := randMat(seed, m, p), randMat(seed+1, p, n)
		lhs := transpose(MatMul(a, b))
		rhs := MatMul(transpose(b), transpose(a))
		return AllClose(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSumRowsConsistentWithSum(t *testing.T) {
	f := func(seed int64, r, c uint8) bool {
		m, n := dims(r, c)
		a := randMat(seed, m, n)
		diff := float64(Sum(SumRows(a)) - Sum(a))
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-3
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGatherScatterAdjoint(t *testing.T) {
	// <Gather(m, idx), g> == <m, ScatterAdd(0, g, idx)> — the adjoint identity
	// that makes scatter-add the correct backward of gather.
	f := func(seed int64, r, c, nIdx uint8) bool {
		m, n := dims(r, c)
		k := int(nIdx%9) + 1
		rng := rand.New(rand.NewSource(seed))
		mat := Randn(rng, 1, m, n)
		g := Randn(rng, 1, k, n)
		idx := make([]int32, k)
		for i := range idx {
			idx[i] = int32(rng.Intn(m))
		}
		gath := GatherRows(mat, idx)
		var lhs float32
		for i := 0; i < gath.Size(); i++ {
			lhs += gath.At1(i) * g.At1(i)
		}
		scat := New(m, n)
		for i, id := range idx {
			dr := scat.Row(int(id))
			for j, v := range g.Row(i) {
				dr[j] += v
			}
		}
		var rhs float32
		for i := 0; i < scat.Size(); i++ {
			rhs += scat.At1(i) * mat.At1(i)
		}
		d := float64(lhs - rhs)
		if d < 0 {
			d = -d
		}
		return d < 1e-2
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// primeDims maps quick-provided bytes onto awkward (odd/prime) sizes,
// including dims smaller than one register tile and spans crossing the
// gemmKC block boundary.
var gemmQuickDims = []int{1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 53, 67}

func TestQuickBlockedGemmMatchesRef(t *testing.T) {
	// Blocked GEMM (both microkernels, all three transpose variants)
	// matches the naive reference within 4 ulps, measured at the scale of
	// the absolute-value product Σ|a·b| which bounds every partial sum in
	// any accumulation order.
	f := func(seed int64, mi, ki, ni uint8) bool {
		m := gemmQuickDims[int(mi)%len(gemmQuickDims)]
		k := gemmQuickDims[int(ki)%len(gemmQuickDims)]
		n := gemmQuickDims[int(ni)%len(gemmQuickDims)]
		a, b := randMat(seed, m, k), randMat(seed+1, k, n)
		at, bt := transpose(a), transpose(b)
		want := RefMatMul(a, b)
		scale := RefMatMul(absData(a), absData(b))
		within := func(got *Tensor) bool {
			for i := range want.data {
				d := got.data[i] - want.data[i]
				if d < 0 {
					d = -d
				}
				if d > 4*ulpAt(scale.data[i]) {
					return false
				}
			}
			return true
		}
		kernels := []struct {
			micro microFn
			nr    int
		}{{mk4x8go, 8}, {gemmMicro, gemmNR}}
		for _, kr := range kernels {
			got := New(m, n)
			gemmWith(kr.micro, kr.nr, got.data, a.data, b.data, m, k, n, false, false, true)
			if !within(got) {
				return false
			}
			got = New(m, n)
			gemmWith(kr.micro, kr.nr, got.data, a.data, bt.data, m, k, n, false, true, true)
			if !within(got) {
				return false
			}
			got = New(m, n)
			gemmWith(kr.micro, kr.nr, got.data, at.data, b.data, m, k, n, true, false, true)
			if !within(got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

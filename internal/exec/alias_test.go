package exec

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// compileSelfNbr compiles h' = Self("h")·Ws + Σ Nbr(nbr)·Wn, the
// mini-batch trainer's convolution when Ws = Wn and nbr = "h".
func compileSelfNbr(t *testing.T, ws, wn, nbr string) *CompiledUDF {
	t.Helper()
	b := gir.NewBuilder()
	b.VFeature("h", 4)
	b.VFeature("g", 4)
	params := map[string]*gir.Value{}
	for _, k := range []string{ws, wn} {
		if params[k] == nil {
			params[k] = b.Param(k, 4, 3)
		}
	}
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		self := v.Self("h").MatMul(params[ws])
		return v.Nbr(nbr).MatMul(params[wn]).AggSum().Add(self)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// aliases lists the forward dense nodes that reuse another's tensor.
func aliases(c *CompiledUDF) map[*gir.Node]*gir.Node {
	out := map[*gir.Node]*gir.Node{}
	for i, row := range c.fwdAlias {
		for j, m := range row {
			if m != nil {
				out[c.FwdPlan.Units[i].Nodes[j]] = m
			}
		}
	}
	return out
}

func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if math.Float32bits(a.At1(i)) != math.Float32bits(b.At1(i)) {
			return false
		}
	}
	return true
}

// TestDenseAliasComputesSharedProductOnce: Self(h)·W and Nbr(h)·W are one
// [N, d] product, so the forward computes it once, and the loss, both
// gradients and Infer's answer keep every bit of the twice-computed run.
func TestDenseAliasComputesSharedProductOnce(t *testing.T) {
	c := compileSelfNbr(t, "W", "W", "h")
	al := aliases(c)
	if len(al) != 1 {
		t.Fatalf("%d aliased dense nodes, want 1 (the second h·W)", len(al))
	}
	for n, m := range al {
		if n.Op != gir.OpMatMulP || m.Op != gir.OpMatMulP || n.Type == m.Type {
			t.Fatalf("alias %v → %v, want one MatMul read through Nbr and Self", n, m)
		}
	}
	twice := compileSelfNbr(t, "W", "W", "h")
	for _, row := range twice.fwdAlias {
		clear(row)
	}

	rng := rand.New(rand.NewSource(3))
	g := graph.PowerLaw(rng, 40, 3).SortByDegree()
	h, gf, w := tensor.Randn(rng, 0.5, 40, 4), tensor.Randn(rng, 0.5, 40, 4), tensor.Randn(rng, 0.5, 4, 3)
	run := func(c *CompiledUDF) (float32, map[string]*tensor.Tensor, *tensor.Tensor) {
		feats := map[string]*tensor.Tensor{"h": h.Clone(), "g": gf.Clone()}
		params := map[string]*tensor.Tensor{"W": w.Clone()}
		loss, grads := scalarLoss(t, c, g, nil, feats, params, true)
		out, err := c.Infer(&InferEnv{G: g, Pool: tensor.NewPool()}, feats, nil, params)
		if err != nil {
			t.Fatal(err)
		}
		return loss, grads, out
	}
	l1, g1, o1 := run(c)
	l2, g2, o2 := run(twice)
	if math.Float32bits(l1) != math.Float32bits(l2) {
		t.Fatalf("loss %v with the shared product, %v without", l1, l2)
	}
	for _, k := range []string{"W", "h"} {
		if !sameBits(g1[k], g2[k]) {
			t.Fatalf("gradient of %s moved", k)
		}
	}
	if !sameBits(o1, o2) {
		t.Fatal("Infer's answer moved")
	}
}

// TestDenseAliasNeedsTheSameValue: different weights or a different
// feature key are different products.
func TestDenseAliasNeedsTheSameValue(t *testing.T) {
	for _, tc := range []struct{ ws, wn, nbr string }{
		{"W", "W2", "h"},
		{"W", "W", "g"},
	} {
		if al := aliases(compileSelfNbr(t, tc.ws, tc.wn, tc.nbr)); len(al) != 0 {
			t.Errorf("Self(h)·%s + Nbr(%s)·%s: %d aliases, want 0", tc.ws, tc.nbr, tc.wn, len(al))
		}
	}
}

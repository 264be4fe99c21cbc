// Fuzz-level differential testing of the whole compile pipeline: random
// S/E/D op chains are traced, optimized, fused, compiled to kernels and
// executed — and the result must match the definitional refinterp
// evaluation of the same optimized GIR bit for bit. The test lives in the
// external test package so it can drive exec (which imports fusion)
// without an import cycle.
package fusion_test

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/refinterp"
	"seastar/internal/tensor"
)

// fuzzProgram decodes the byte stream into a deterministic vertex-centric
// program. Byte 0 seeds the graph, byte 1 packs flags (hetero bit,
// feature width, and in its top bit whether opcode 11 adds a parameter
// instead of aggregating), and each following byte appends one operator
// to the chain: the opcode comes from the low bits, operand choices from
// the high bits, so the corpus mutator explores both structure and wiring.
type fuzzProgram struct {
	hetero bool
	biased bool // opcode 11 adds a [dim] or [1] parameter, broadcast over rows
	dim    int
	ops    []byte
}

func decodeFuzz(data []byte) (fuzzProgram, int64) {
	p := fuzzProgram{dim: 1}
	if len(data) < 3 {
		return p, 0
	}
	gseed := int64(data[0])
	flags := data[1]
	p.hetero = flags&1 == 1
	p.biased = flags&0x80 != 0
	p.dim = []int{1, 2, 4, 8}[(flags>>1)&3]
	p.ops = data[2:]
	if len(p.ops) > 24 {
		p.ops = p.ops[:24]
	}
	return p, gseed
}

// buildUDF constructs the traced program; it must be a pure function of p
// so both engines see identical GIR.
func (p fuzzProgram) buildUDF(b *gir.Builder) gir.UDF {
	b.VFeature("h", p.dim)
	b.VFeature("s", 1)
	if p.hetero {
		b.EFeature("w", 1)
	}
	var biases []*gir.Value
	if p.biased {
		biases = []*gir.Value{b.Param("b", p.dim), b.Param("c", 1)}
	}
	return func(v *gir.Vertex) *gir.Value {
		pool := []*gir.Value{v.Nbr("h"), v.Self("h"), v.Nbr("s"), v.Self("s")}
		if p.hetero {
			pool = append(pool, v.Edge("w"))
		}
		pick := func(sel byte) *gir.Value { return pool[int(sel)%len(pool)] }
		pickW := func(sel byte, w int) *gir.Value {
			for tries := 0; tries < len(pool); tries++ {
				c := pool[(int(sel)+tries)%len(pool)]
				if c.Node().Dim() == w || c.Node().Dim() == 1 || w == 1 {
					return c
				}
			}
			return pick(sel)
		}
		for _, op := range p.ops {
			code, sel := op%12, op>>4
			var nv *gir.Value
			switch code {
			case 0:
				nv = pick(sel).Sigmoid()
			case 1:
				nv = pick(sel).Tanh()
			case 2:
				nv = pick(sel).LeakyReLU(0.2)
			case 3:
				nv = pick(sel).MulScalar(0.5).AddScalar(0.25)
			case 4, 5:
				a := pick(sel)
				nv = a.Add(pickW(sel+1, a.Node().Dim()))
			case 6:
				a := pick(sel)
				nv = a.Mul(pickW(sel+1, a.Node().Dim()))
			case 7:
				a := pick(sel)
				// Keep denominators away from zero.
				nv = a.Div(pickW(sel+1, a.Node().Dim()).Sigmoid().AddScalar(1.1))
			case 8:
				a := pick(sel)
				if a.Node().Dim() > 1 {
					nv = a.RowSum()
				} else {
					nv = a.Neg()
				}
			case 9:
				a := pick(sel)
				if a.Type() != gir.TypeD {
					nv = a.AggMax()
				} else {
					nv = a.Exp().AddScalar(1).Log()
				}
			case 11:
				if p.biased {
					nv = pick(sel).Add(biases[sel%2])
					break
				}
				fallthrough
			default:
				a := pick(sel)
				if a.Type() != gir.TypeD {
					if p.hetero && sel%2 == 0 {
						nv = a.AggHier(gir.AggSum, gir.AggSum)
					} else if sel%3 == 0 {
						nv = a.AggMean()
					} else {
						nv = a.AggSum()
					}
				} else {
					nv = a.Sigmoid()
				}
			}
			pool = append(pool, nv)
		}
		for i := len(pool) - 1; i >= 0; i-- {
			if pool[i].Type() == gir.TypeD {
				return pool[i]
			}
		}
		return pool[len(pool)-1].AggSum()
	}
}

func fuzzGraph(seed int64, hetero bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(14)
	m := 8 + rng.Intn(4*n)
	if max := n * (n - 1); m > max {
		m = max
	}
	g := graph.GNM(rng, n, m)
	if hetero {
		graph.RandomEdgeTypes(rng, g, 1+rng.Intn(4))
		if err := g.SortEdgesByType(); err != nil {
			panic(err)
		}
	}
	return g.SortByDegree()
}

// sameBits reports bit-identity, treating any two NaNs as equal.
func sameBits(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func checkFusionEquivalence(t *testing.T, data []byte) {
	p, gseed := decodeFuzz(data)
	if p.ops == nil {
		return
	}
	b := gir.NewBuilder()
	udf := p.buildUDF(b)
	dag, err := b.Build(udf)
	if err != nil {
		return // invalid program shapes are not interesting
	}
	// Inference-only compilation: the generator is free to emit max/mean
	// aggregations, which have no gradient and would be rejected by the
	// training-path compiler.
	c, err := exec.CompileInference(dag)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	g := fuzzGraph(gseed, p.hetero)

	irng := rand.New(rand.NewSource(gseed ^ 0x5eab5eab))
	vfeat := map[string]*tensor.Tensor{
		"h": tensor.Randn(irng, 0.5, g.N, p.dim),
		"s": tensor.Randn(irng, 0.5, g.N, 1),
	}
	var efeat, params map[string]*tensor.Tensor
	if p.hetero {
		efeat = map[string]*tensor.Tensor{"w": tensor.Randn(irng, 0.5, g.M, 1)}
	}
	if p.biased {
		params = map[string]*tensor.Tensor{"b": tensor.Randn(irng, 0.5, p.dim), "c": tensor.Randn(irng, 0.5, 1)}
	}

	// Every seastar unit runs on the kernel VM (specialize.go): grammar
	// matches and opSteps alike.
	got, err := c.Infer(&exec.InferEnv{G: g}, vfeat, efeat, params)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}

	// The oracle evaluates the SAME optimized forward DAG the kernels
	// were compiled from, so optimizer rewrites cannot explain a
	// divergence: any mismatch is a fusion/codegen bug.
	bind := &refinterp.Bindings{VFeat: vfeat, EFeat: efeat, Params: params}
	vals, err := refinterp.Eval(c.Fwd.DAG, g, bind)
	if err != nil {
		t.Fatalf("refinterp: %v", err)
	}
	want := vals[c.Fwd.DAG.Outputs[0]]

	if got.Size() != want.Size() {
		t.Fatalf("output size %d != reference %d", got.Size(), want.Size())
	}
	for i := 0; i < got.Size(); i++ {
		if !sameBits(got.At1(i), want.At1(i)) {
			t.Fatalf("output[%d]: fused %v (bits %08x) != reference %v (bits %08x); hetero=%v dim=%d data=%v",
				i, got.At1(i), math.Float32bits(got.At1(i)),
				want.At1(i), math.Float32bits(want.At1(i)), p.hetero, p.dim, data)
		}
	}
}

// FuzzFusionEquivalence is the native-fuzzing entry point; the seed
// corpus below plus testdata/fuzz checked-in inputs run on every plain
// `go test`.
func FuzzFusionEquivalence(f *testing.F) {
	f.Add([]byte{7, 2, 10, 4, 0, 10})                          // homo GCN-ish: add, sigmoid, aggsum
	f.Add([]byte{3, 1, 0, 2, 11, 7, 6, 10})                    // hetero with div + hier agg
	f.Add([]byte{11, 4, 9, 9, 8, 10})                          // aggmax + rowsum chain
	f.Add([]byte{42, 5, 5, 6, 3, 1, 10, 0})                    // mixed widths, tanh
	f.Add([]byte{1, 7, 11, 11, 2, 4, 10, 9, 8})                // hetero wide, mean agg
	f.Add([]byte{99, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) // every opcode once
	f.Add([]byte{13, 3, 7, 7, 7, 10, 10, 5, 9})                // nested div + double agg
	// Closure-compiler shapes (specialize.go): these decode to the
	// canonical VM patterns so the mutator starts from recognizable
	// programs.
	f.Add([]byte{7, 6, 36, 66, 80, 106, 103, 150, 154}) // GAT-shaped: scalar edge chain → softmax div → scaled gather
	f.Add([]byte{9, 6, 54, 74})                         // GCN-shaped: row-scalar × wide gather → aggsum
	f.Add([]byte{5, 7, 66, 86, 106})                    // R-GCN-shaped: hetero scalar chain → scaled gather → hier agg
	// GAT-backward-shaped: the dot production RowSum(Mul(nbr h, self h))
	// feeding a chain and a scaled gather — flat, then in hierarchical
	// blocks cut at type changes.
	f.Add([]byte{21, 6, 6, 68, 86, 102, 118})
	f.Add([]byte{5, 7, 36, 6, 104, 114, 130})
	f.Fuzz(checkFusionEquivalence)
}

// TestFusionEquivalenceSweep runs the differential check over a dense
// deterministic input sweep, so plain `go test` exercises far more
// programs than the seed corpus alone.
func TestFusionEquivalenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for i := 0; i < 150; i++ {
		n := 3 + rng.Intn(10)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		checkFusionEquivalence(t, data)
	}
}

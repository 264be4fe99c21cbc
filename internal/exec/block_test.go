package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// blockGraph draws n vertices and m edges that all enter the first d; a
// few of those d get no edge, so they sort among the zero-degree rows.
func blockGraph(t *testing.T, rng *rand.Rand, n, d, m, rels int) *graph.Graph {
	t.Helper()
	srcs, dsts := make([]int32, m), make([]int32, m)
	for i := range srcs {
		srcs[i] = int32(rng.Intn(n))
		dsts[i] = int32(rng.Intn(d))
		for dsts[i]%7 == 3 { // no edge enters these destinations
			dsts[i] = int32(rng.Intn(d))
		}
	}
	g, err := graph.FromEdgesSorted(n, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	types := make([]int32, m)
	for i := range types {
		types[i] = int32(rng.Intn(rels))
	}
	if err := g.WithEdgeTypes(types, rels); err != nil {
		t.Fatal(err)
	}
	return g
}

// stepResult is what one Apply, loss and backward leave behind.
type stepResult struct {
	out   *tensor.Tensor
	loss  float32
	grads []*tensor.Tensor // by c.Inputs
}

// blockStep applies c on g to the inputs (each a trainable variable), then
// backpropagates the cross entropy of the first d output rows. On the
// square graph a mask selects those rows, so the upstream gradient is zero
// past d; on the block the output has d rows and no mask is needed.
func blockStep(g *graph.Graph, c *exec.CompiledUDF, inputs []*tensor.Tensor, labels []int) (stepResult, error) {
	e := nn.NewEngine(nil)
	maps := [3]map[string]*nn.Variable{{}, {}, {}}
	vars := make([]*nn.Variable, len(inputs))
	for i, spec := range c.Inputs {
		vars[i] = e.Param(inputs[i].Clone(), spec.Key)
		maps[spec.Kind][spec.Key] = vars[i]
	}
	out, err := c.Apply(exec.NewRuntime(e, g), maps[exec.InVFeat], maps[exec.InEFeat], maps[exec.InParam])
	if err != nil {
		return stepResult{}, err
	}
	var mask []bool
	if rows := out.Value.Rows(); rows > len(labels) {
		mask = make([]bool, rows)
		for i := range labels {
			mask[i] = true
		}
		labels = append(labels, make([]int, rows-len(labels))...)
	}
	loss := e.CrossEntropyMasked(out, labels, mask)
	e.Backward(loss)
	r := stepResult{out: out.Value.Clone(), loss: loss.Value.At1(0)}
	for _, v := range vars {
		r.grads = append(r.grads, v.Grad)
	}
	return r, nil
}

// TestBlockMatchesSquare runs every stage plan of the program table, and
// of GIN and mean-SAGE (units with no aggregation, and a product with a
// width-1 Self input), once on a block and once on the square graph it views, in both SIMD modes.
// The block's output rows are the square output's first D rows, bit for
// bit; with the upstream gradient zero past D, every input's gradient has
// the same bits, sign of zero included: parameters, edge inputs, and
// vertex inputs, whose D-typed gradients fill only their first D rows on
// the block (the mini-batch model's h adds one through Self to one
// through Nbr). A batch of 40 seeds puts the mini-batch model's products
// below the naive GEMM threshold while the square graph's are above it,
// which the dispatch replay must hide. Every plan runs on a block: an A:S
// kernel writes no D-typed value (fusion moves those to a row-only unit),
// APPNP's step included. Each plan's inference-only compile runs on the
// block too: Infer's output is the square output's first D rows as well.
func TestBlockMatchesSquare(t *testing.T) {
	const in, rels = 64, 3
	const eps float32 = 0.1 // GIN's self weight is 1+ε
	s := program.Spec{Hidden: 8, Classes: 5, Alpha: 0.1, K: 2}
	progs := []struct {
		name string
		p    *program.Program
	}{
		{"gcn", program.GCN(s, in, rels)},
		{"gat", program.GAT(s, in, rels)},
		{"appnp", program.APPNP(s, in, rels)},
		{"rgcn", program.RGCN(s, in, rels)},
		{"gin", vertexProgram(func(v *gir.Vertex) *gir.Value {
			self := v.Self("h").MulScalar(1 + eps) // traced first, as GIN declares it
			return v.Nbr("h").AggSum().Add(self)
		}, nil, in, s.Hidden)},
		{"sage", vertexProgram(func(v *gir.Vertex) *gir.Value {
			return v.Nbr("h").AggSum().Mul(v.Self("invdeg"))
		}, []string{"invdeg"}, s.Hidden, s.Classes)},
		{"minibatch-sage", program.MiniBatchSAGE(in, 8)},
	}
	rng := rand.New(rand.NewSource(31))
	for _, shape := range []struct{ n, d, m int }{{300, 40, 500}, {700, 300, 1500}} {
		g := blockGraph(t, rng, shape.n, shape.d, shape.m, rels)
		blk, err := g.DstPrefix(shape.d)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int, shape.d)
		for _, pr := range progs {
			var seen []*program.Plan
			for si, st := range pr.p.Stages {
				if st.Plan == nil || slices.Contains(seen, st.Plan) {
					continue
				}
				seen = append(seen, st.Plan)
				dag, err := st.Plan.Trace()
				if err != nil {
					t.Fatal(err)
				}
				c, err := exec.Compile(dag)
				if err != nil {
					t.Fatal(err)
				}
				ci, err := exec.CompileInference(dag)
				if err != nil {
					t.Fatal(err)
				}
				inputs := planInputs(rng, c, g)
				byKind := [3]map[string]*tensor.Tensor{{}, {}, {}}
				for i, spec := range c.Inputs {
					byKind[spec.Kind][spec.Key] = inputs[i]
				}
				width := dag.Outputs[0].Shape[len(dag.Outputs[0].Shape)-1]
				for i := range labels {
					labels[i] = rng.Intn(width)
				}
				name := fmt.Sprintf("%s/stage%d", pr.name, si+1)
				for _, simd := range []bool{false, true} {
					prev := tensor.SetSIMD(simd)
					sq, sqErr := blockStep(g, c, inputs, slices.Clone(labels))
					bl, blErr := blockStep(blk, c, inputs, slices.Clone(labels))
					inf, infErr := ci.Infer(&exec.InferEnv{G: blk}, byKind[exec.InVFeat], byKind[exec.InEFeat], byKind[exec.InParam])
					tensor.SetSIMD(prev)
					if sqErr != nil {
						t.Fatalf("%s: square graph: %v", name, sqErr)
					}
					if infErr != nil || inf.Rows() != shape.d {
						t.Errorf("%s: Infer on a block: %v", name, infErr)
					} else if i := firstBitDiff(inf.Data(), sq.out.Data()); i >= 0 {
						t.Errorf("%s simd=%v: Infer's block output element %d: %v, the square graph's %v", name, simd, i, inf.Data()[i], sq.out.Data()[i])
					}
					if blErr != nil {
						t.Errorf("%s: %v", name, blErr)
						continue
					}
					compareBlock(t, name, simd, c, shape.d, sq, bl)
				}
			}
		}
	}
}

// vertexProgram is a program of one stage per width, each stage's plan
// tracing udf over a vertex feature h of that width and the width-1
// vertex features named in extra: GIN's and mean-SAGE's layers, whose
// dense phases this test does not read.
func vertexProgram(udf gir.UDF, extra []string, widths ...int) *program.Program {
	p := &program.Program{}
	for _, w := range widths {
		p.Stages = append(p.Stages, program.Stage{Plan: &program.Plan{Trace: func() (*gir.DAG, error) {
			b := gir.NewBuilder()
			b.VFeature("h", w)
			for _, k := range extra {
				b.VFeature(k, 1)
			}
			return b.Build(udf)
		}}})
	}
	return p
}

// planInputs draws every input of c over g: vertex inputs with a row per
// vertex, edge inputs with a row per edge, parameters at their shape.
func planInputs(rng *rand.Rand, c *exec.CompiledUDF, g *graph.Graph) []*tensor.Tensor {
	shapes := map[string][]int{}
	for _, n := range c.Fwd.DAG.Nodes {
		if n.Op == gir.OpLeaf {
			shapes[n.Key] = n.Shape
		}
	}
	var ts []*tensor.Tensor
	for _, spec := range c.Inputs {
		shape := shapes[spec.Key]
		switch spec.Kind {
		case exec.InVFeat:
			shape = append([]int{g.N}, shape...)
		case exec.InEFeat:
			shape = append([]int{g.M}, shape...)
		}
		ts = append(ts, tensor.Uniform(rng, -1, 1, shape...))
	}
	return ts
}

// compareBlock checks one plan's block step against its square-graph step.
func compareBlock(t *testing.T, name string, simd bool, c *exec.CompiledUDF, d int, sq, bl stepResult) {
	t.Helper()
	if bl.out.Rows() != d {
		t.Errorf("%s simd=%v: block output has %d rows, want %d", name, simd, bl.out.Rows(), d)
		return
	}
	if i := firstBitDiff(bl.out.Data(), sq.out.Data()); i >= 0 {
		t.Errorf("%s simd=%v: output element %d: %v on the block, %v on the square graph", name, simd, i, bl.out.Data()[i], sq.out.Data()[i])
	}
	if math.Float32bits(bl.loss) != math.Float32bits(sq.loss) {
		t.Errorf("%s simd=%v: loss %v on the block, %v on the square graph", name, simd, bl.loss, sq.loss)
	}
	for i, spec := range c.Inputs {
		if j := firstBitDiff(bl.grads[i].Data(), sq.grads[i].Data()); j >= 0 {
			t.Errorf("%s simd=%v: %s %q gradient element %d: %v on the block, %v on the square graph",
				name, simd, spec.Kind, spec.Key, j, bl.grads[i].Data()[j], sq.grads[i].Data()[j])
		}
	}
}

// firstBitDiff returns the first index where a and b (a's length) differ
// in bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i, x := range a {
		if math.Float32bits(x) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

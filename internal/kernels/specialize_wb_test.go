package kernels

// White-box coverage of the VM's one instruction executor, execProg:
// every chain arm must match the evalStep definition at width 1 bit for
// bit — including the grad opcodes, which reach the edge program only
// through compiled backward chains — whether its operands are
// one-element views of the scalar bank (a rowProg instruction) or block
// columns mixed with bank scalars (an edge-program instruction). opA/opB
// are the grad arms' operand readers; their scalar/column dispatch is
// pinned here directly.

import (
	"math"
	"testing"
)

func f32bits(x float32) uint32 { return math.Float32bits(x) }

func TestRunScalarOpArms(t *testing.T) {
	exp := func(x float32) float32 { return float32(math.Exp(float64(x))) }
	cases := []struct {
		name string
		op   specProgOp
		want float32
	}{
		{"add", specProgOp{code: opAdd, o: 2, a: 0, b: 1}, 0.75 + -1.5},
		{"sub", specProgOp{code: opSub, o: 2, a: 0, b: 1}, 0.75 - -1.5},
		{"mul", specProgOp{code: opMul, o: 2, a: 0, b: 1}, 0.75 * -1.5},
		{"div", specProgOp{code: opDiv, o: 2, a: 0, b: 1}, 0.75 / -1.5},
		{"neg", specProgOp{code: opNeg, o: 2, a: 1}, 1.5},
		{"exp", specProgOp{code: opExp, o: 2, a: 0}, exp(0.75)},
		{"log", specProgOp{code: opLog, o: 2, a: 0}, float32(math.Log(0.75))},
		{"leakyrelu_neg", specProgOp{code: opLeakyReLU, o: 2, a: 1, c: 0.1}, -0.15},
		{"leakyrelu_pos", specProgOp{code: opLeakyReLU, o: 2, a: 0, c: 0.1}, 0.75},
		{"relu_neg", specProgOp{code: opReLU, o: 2, a: 1}, 0},
		{"relu_pos", specProgOp{code: opReLU, o: 2, a: 0}, 0.75},
		{"sigmoid", specProgOp{code: opSigmoid, o: 2, a: 0}, 1 / (1 + exp(-0.75))},
		{"tanh", specProgOp{code: opTanh, o: 2, a: 0}, float32(math.Tanh(0.75))},
		{"mulconst", specProgOp{code: opMulConst, o: 2, a: 0, c: 2.5}, 2.5 * 0.75},
		{"addconst", specProgOp{code: opAddConst, o: 2, a: 0, c: 2.5}, 2.5 + 0.75},
		{"leakyrelugrad_pos", specProgOp{code: opLeakyReLUGrad, o: 2, a: 0, b: 1, c: 0.1}, -1.5},
		{"leakyrelugrad_neg", specProgOp{code: opLeakyReLUGrad, o: 2, a: 1, b: 0, c: 0.1}, float32(0.1) * 0.75},
		{"relugrad_pos", specProgOp{code: opReLUGrad, o: 2, a: 0, b: 1}, -1.5},
		{"relugrad_neg", specProgOp{code: opReLUGrad, o: 2, a: 1, b: 0}, 0},
		{"sigmoidgrad", specProgOp{code: opSigmoidGrad, o: 2, a: 0, b: 1}, -1.5 * 0.75 * (1 - 0.75)},
		{"tanhgrad", specProgOp{code: opTanhGrad, o: 2, a: 0, b: 1}, -1.5 * (1 - 0.75*0.75)},
		{"copy", specProgOp{code: opCopy, o: 2, a: 1}, -1.5},
	}
	k := &Kernel{}
	check := func(name string, got []float32, want float32) {
		t.Helper()
		for j, g := range got {
			if f32bits(g) != f32bits(want) {
				t.Errorf("%s[%d]: got %v (bits %08x), want %v (bits %08x)",
					name, j, g, f32bits(g), want, f32bits(want))
			}
		}
	}
	// fill returns an n-element column holding x in every element.
	fill := func(x float32, n int) []float32 {
		col := make([]float32, n)
		for j := range col {
			col[j] = x
		}
		return col
	}
	for _, tc := range cases {
		p := tc.op

		// One-element columns over the scalar bank, as rowProg binds them.
		v := []float32{0.75, -1.5, 0}
		k.execProg(&runArena{svals: v}, []specOp{rowOp(p, v)}, zeroIdx[:1], zeroIdx[:1], nil)
		check(tc.name+"/row", v[2:3], tc.want)

		// A block mixing bank scalars and columns: every operand form a
		// binary opcode can take, each element computing the same value.
		const n = 5
		type form struct {
			name     string
			aSc, bSc bool
		}
		forms := []form{{"col", false, false}}
		if opReadsB(p.code) {
			forms = append(forms, form{"a-scalar", true, false}, form{"b-scalar", false, true})
		}
		for _, f := range forms {
			v := []float32{0.75, -1.5, 0}
			blk := specOp{code: p.code, c: p.c, a: p.a, b: p.b, aSc: f.aSc, bSc: f.bSc, oc: make([]float32, n)}
			if !f.aSc {
				blk.ac = fill(v[p.a], n)
			}
			if !f.bSc {
				blk.bc = fill(v[p.b], n)
			}
			k.execProg(&runArena{svals: v}, []specOp{blk}, make([]int32, n), make([]int32, n), nil)
			check(tc.name+"/block-"+f.name, blk.oc, tc.want)
		}
	}
}

func TestSpecOpOperandReaders(t *testing.T) {
	v := []float32{10, 20}
	col := []float32{1, 2, 3}
	sc := &specOp{a: 0, b: 1, aSc: true, bSc: true}
	if got := sc.opA(v, 2); got != 10 {
		t.Errorf("scalar opA = %v, want 10", got)
	}
	if got := sc.opB(v, 2); got != 20 {
		t.Errorf("scalar opB = %v, want 20", got)
	}
	cl := &specOp{ac: col, bc: col}
	if got := cl.opA(v, 1); got != 2 {
		t.Errorf("column opA = %v, want 2", got)
	}
	if got := cl.opB(v, 2); got != 3 {
		t.Errorf("column opB = %v, want 3", got)
	}
}

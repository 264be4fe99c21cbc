package kernels_test

import (
	"math/rand"
	"testing"

	"seastar/internal/exec"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/program"
	"seastar/internal/refinterp"
	"seastar/internal/tensor"
)

// BenchmarkKernelVM times the kernel VM on the units of the table's first
// stages, forward and backward: GCN's (bias, then sigmoid) and GAT's
// (ReLU). One op launches every seastar unit of the pass, in plan order,
// over a Zipf graph of 8 000 vertices and about 64 000 edges, with the
// default worker count; outputs are allocated once, outside the timer.
func BenchmarkKernelVM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ZipfDegree(rng, 8000, 8, 1.0).SortByDegree()
	spec := program.Spec{Hidden: 16, Classes: 8}
	cases := []struct {
		name          string
		p             *program.Program
		vfeat, params map[string]*tensor.Tensor
	}{
		{"gcn", program.GCN(spec, 32, 1),
			map[string]*tensor.Tensor{"hw": tensor.Randn(rng, 0.5, g.N, 16), "norm": tensor.Uniform(rng, 0.2, 1, g.N, 1)},
			map[string]*tensor.Tensor{"b": tensor.Randn(rng, 0.5, 16)}},
		{"gat", program.GAT(spec, 32, 1),
			map[string]*tensor.Tensor{"eu": tensor.Randn(rng, 0.5, g.N, 1), "ev": tensor.Randn(rng, 0.5, g.N, 1), "h": tensor.Randn(rng, 0.5, g.N, 16)},
			nil},
	}
	for _, tc := range cases {
		dag, err := tc.p.Stages[0].Plan.Trace()
		if err != nil {
			b.Fatal(err)
		}
		c, err := exec.Compile(dag)
		if err != nil {
			b.Fatal(err)
		}
		saved, err := refinterp.Eval(c.Fwd.DAG, g, &refinterp.Bindings{VFeat: tc.vfeat, Params: tc.params})
		if err != nil {
			b.Fatal(err)
		}
		dy := tensor.Randn(rng, 0.5, g.N, c.Fwd.DAG.Outputs[0].Dim())
		for _, pass := range []struct {
			name string
			p    *exec.Pass
			bind *kernels.Bindings
		}{
			{"fwd", c.Fwd, &kernels.Bindings{VFeat: tc.vfeat, Params: tc.params}},
			{"bwd", c.Bwd, &kernels.Bindings{VFeat: tc.vfeat, Params: tc.params, Grad: dy, Saved: saved}},
		} {
			b.Run(tc.name+"/"+pass.name, func(b *testing.B) {
				type launch struct {
					k    *kernels.Kernel
					outs map[*gir.Node]*tensor.Tensor
				}
				var launches []launch
				pass.bind.Inter = map[*gir.Node]*tensor.Tensor{}
				for _, u := range pass.p.Plan.Units {
					if u.Kind != fusion.KindSeastar {
						continue
					}
					l := launch{k: pass.p.Kernel(u), outs: map[*gir.Node]*tensor.Tensor{}}
					for _, n := range pass.p.Materialized(u) {
						rows := g.N
						if n.Type == gir.TypeE {
							rows = g.M
						}
						l.outs[n] = tensor.New(rows, n.Dim())
						pass.bind.Inter[n] = l.outs[n]
					}
					launches = append(launches, l)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, l := range launches {
						if err := l.k.Run(g, pass.bind, l.outs); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

package program

import (
	"fmt"
	"math/rand"

	"seastar/internal/exec"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/obs"
	"seastar/internal/tensor"
)

// The nn lowering: a program run on an nn.Engine, which records every op
// for autograd. Dense ops become MatMul plus the activation and a plan
// becomes its training compilation's Apply — its bias, self loop and
// activation with it, so serving's runner and this lowering share every
// op of a stage but the dense products, and a trained model serves the
// function it learned.

// Var maps a to its nn op.
func (a Act) Var(e *nn.Engine, v *nn.Variable) *nn.Variable {
	if a == ReLU {
		return e.ReLU(v)
	}
	return v
}

// Draw registers p's weights as e's trainable parameters, drawn from rng
// in draw order by Weight.Draw, and returns them by name.
func (p *Program) Draw(e *nn.Engine, rng *rand.Rand) map[string]*nn.Variable {
	w := make(map[string]*nn.Variable, len(p.Weights))
	for _, d := range p.Weights {
		w[d.Name] = e.Param(d.Draw(rng), d.Name)
	}
	return w
}

// Params lists w, as Draw returned it for p, in draw order.
func (p *Program) Params(w map[string]*nn.Variable) []*nn.Variable {
	ps := make([]*nn.Variable, len(p.Weights))
	for i, d := range p.Weights {
		ps[i] = w[d.Name]
	}
	return ps
}

// NormVars is a graph's normalizers as engine inputs, indexed by Norm.
type NormVars [NumNorms]*nn.Variable

// NormInputs evaluates over g every normalizer p's stages bind, as e's
// inputs: like the features, they stay resident for the whole run.
func (p *Program) NormInputs(e *nn.Engine, g *graph.Graph) NormVars {
	var nv NormVars
	for _, n := range p.Norms() {
		nv[n] = e.Input(n.Of(g, tensor.New), fmt.Sprintf("norm%d", n))
	}
	return nv
}

// Net is a program lowered onto an nn.Engine: its weights and its plans
// compiled for training.
type Net struct {
	p    *Program
	w    map[string]*nn.Variable
	udfs map[*Plan]*exec.CompiledUDF
	// dense holds each dense op's obs label, by stage: the program's dense
	// phase is a ledger line beside the plan's units ("exec", "[dense]").
	dense [][]string
}

// Lower compiles p's plans for training over the weights w (from Draw).
func Lower(p *Program, w map[string]*nn.Variable) (*Net, error) {
	n := &Net{p: p, w: w, udfs: map[*Plan]*exec.CompiledUDF{}, dense: make([][]string, len(p.Stages))}
	for i, s := range p.Stages {
		for _, d := range s.Dense {
			n.dense[i] = append(n.dense[i], fmt.Sprintf("stage %d %s [dense]", i+1, d.Out))
		}
		if s.Plan == nil || n.udfs[s.Plan] != nil {
			continue
		}
		dag, err := s.Plan.Trace()
		if err == nil {
			n.udfs[s.Plan], err = exec.Compile(dag)
		}
		if err != nil {
			return nil, fmt.Errorf("program: stage %d: %w", i+1, err)
		}
	}
	return n, nil
}

// Forward runs the program over rt's graph from the input x, binding the
// normalizers its stages name from norms, and returns the last stage's
// output.
func (n *Net) Forward(rt *exec.Runtime, x *nn.Variable, norms *NormVars) (*nn.Variable, error) {
	e := rt.E
	h := x
	vals := map[string]*nn.Variable{}
	for i, s := range n.p.Stages {
		for j, d := range s.Dense {
			in := h
			if d.In != "" {
				in = vals[d.In]
			}
			sp := obs.Begin("exec", n.dense[i][j])
			vals[d.Out] = d.Act.Var(e, e.MatMul(in, n.w[d.W]))
			sp.End()
		}
		if s.Plan == nil {
			h = vals[s.Dense[len(s.Dense)-1].Out]
			continue
		}
		vfeat := make(map[string]*nn.Variable, len(s.Values)+len(s.Norms))
		var efeat, params map[string]*nn.Variable
		for _, v := range s.Values {
			vfeat[v.Key] = h
			if v.Name != "" {
				vfeat[v.Key] = vals[v.Name]
			}
		}
		for _, nb := range s.Norms {
			if nb.Ref == NormEdgeRel {
				efeat = map[string]*nn.Variable{nb.Key: norms[nb.Ref]}
			} else {
				vfeat[nb.Key] = norms[nb.Ref]
			}
		}
		for _, pb := range s.Params {
			if params == nil {
				params = map[string]*nn.Variable{}
			}
			params[pb.Key] = n.w[pb.Name]
		}
		out, err := n.udfs[s.Plan].Apply(rt, vfeat, efeat, params)
		if err != nil {
			return nil, fmt.Errorf("program: stage %d: %w", i+1, err)
		}
		h = out
	}
	return h, nil
}

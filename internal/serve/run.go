package serve

import (
	"fmt"
	"math/rand"
	"slices"

	"seastar/internal/exec"
	"seastar/internal/graph"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// Serving's lowering of the layer program (internal/program, DESIGN §8):
// run.step applies a program's stages to whatever rows arrive — all of a
// graph's, a delta's dirty rows, a fragment's owned rows — with the plans
// compiled for inference. No architecture is named here; scripts/ci.sh
// fails if one is.

// ModelSpec is the canonical serving configuration of one GNN. Equal
// specs always denote the same function: weights are drawn
// deterministically from Seed, so every replica (and every plan-cache
// rebuild) computes bit-identical outputs.
type ModelSpec = program.Spec

// setNorms binds in env the normalizers m's plans read: snap's cached
// ones, or without a snap computed from deg (per edge: from env.G).
func setNorms(p *program.Program, env *ForwardEnv, snap *Snapshot, deg program.Degrees) {
	for _, n := range p.Norms() {
		switch {
		case env.norms[n] != nil:
		case snap != nil:
			env.norms[n] = snap.normFor(n)
		case n == program.NormEdgeRel:
			env.norms[n] = n.Of(env.G, env.get)
		default:
			env.norms[n] = n.Vertex(deg, env.get)
		}
	}
}

// newModel draws p's weights from spec.Seed and compiles its plans for
// inference — the expensive path the plan cache deduplicates. A name in p
// that resolves to nothing is a bug in the table and panics at first use.
func newModel(spec ModelSpec, inDim, numRel int, p *program.Program) (*Model, error) {
	if inDim < 1 {
		return nil, fmt.Errorf("serve: input dim %d must be ≥ 1", inDim)
	}
	m := &Model{Spec: spec, InDim: inDim, NumRel: 1, prog: p,
		weights: map[string]*tensor.Tensor{}, udfs: map[*program.Plan]*exec.CompiledUDF{}}
	if p.Typed() {
		if numRel < 1 {
			return nil, fmt.Errorf("serve: %s needs ≥ 1 relation, got %d", spec.Arch, numRel)
		}
		m.NumRel = numRel
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for _, w := range p.Weights {
		m.weights[w.Name] = w.Draw(rng)
	}
	for i, s := range p.Stages {
		if s.Plan == nil {
			return nil, fmt.Errorf("serve: stage %d has no plan (dense-only stages are not served)", i+1)
		}
		if m.udfs[s.Plan] != nil {
			continue
		}
		dag, err := s.Plan.Sides()
		if err == nil {
			m.udfs[s.Plan], err = exec.CompileInference(dag)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: stage %d: %w", i+1, err)
		}
	}
	return m, nil
}

// frontier is the row context of a stage run over part of a graph: a
// destination-compact in-CSR g whose row ids index output rows — a plan
// over g writes [len(rows), C], row i for vertex rows[i] — and whose
// neighbour ids index the value tensors, n rows each: global ids for a
// delta (dirtyFrontiers, one per hop), local ids for a fragment (its owned
// rows, every stage). Each row holds its vertex's whole in-list in the
// full graph's order, so per-row folds see the neighbour values and order
// the full graph would: a frontier run is bitwise. Edge ids are slot
// indices. dirty is the vertices whose stage input changed: the rows the
// run's h stands for.
type frontier struct {
	dirty, rows []int32
	g           *graph.Graph
	n           int
}

// run is one pass of a model's program over a row context: the single
// implementation behind Model.Forward and EnsureEmbeddings (all rows of
// env.G), the delta patcher (patch: each stage over a frontier) and
// ShardForward (a fragment's frontier, the caller exchanging mirror rows
// of the next stage's crossing values between steps).
type run struct {
	m   *Model
	env *ForwardEnv // the graph plans walk, its normalizers, pool
	// fullRows is N of the whole graph, replayed into every dense dispatch
	// so a row computed here has the bits it has in the full product.
	fullRows int
	// vals holds the dense outputs by name, over every vertex a neighbour
	// id names: a patch's are the parent's, a frontier run draws the rest.
	vals map[string]*tensor.Tensor

	h    *tensor.Tensor // the next stage's input: at first, the features
	done int            // stages completed
}

// step runs the next stage over all rows of env.G, or (patch) over f's:
// the plan then walks f.g, reading Nbr-side inputs from the value tensors
// and Self-side ones gathered to f.rows. h becomes the stage's output.
func (r *run) step(f *frontier) error {
	r.dense(f)
	out, err := r.aggregate(f)
	if err != nil {
		return err
	}
	r.advance(out, f)
	return nil
}

// dense runs the next stage's dense products over every row of its input
// h, each dispatched as a [fullRows, k] multiply. Without a frontier the
// products are the values; over one, h's rows are f.dirty and each
// product is scattered there. An operand goes back to the pool after its
// last reader: a request holds a layer's input or its output, never both.
func (r *run) dense(f *frontier) {
	s := &r.m.prog.Stages[r.done]
	outs := make([]*tensor.Tensor, len(s.Dense))
	for i, op := range s.Dense {
		src := r.h
		if op.In != "" {
			src = outs[program.DenseIndex(s.Dense, op.In)]
		}
		w := r.m.weights[op.W]
		out := tensor.MatMulRowsLike(src, w, r.fullRows, r.env.get(src.Rows(), w.Cols()))
		op.Act.Apply(out)
		outs[i] = out
		if f == nil {
			r.vals[op.Out] = out
		} else {
			if r.vals[op.Out] == nil {
				r.vals[op.Out] = r.env.get(f.n, w.Cols())
			}
			setRows(r.vals[op.Out], f.dirty, out)
		}
		if !s.Binds(op.In) && !slices.ContainsFunc(s.Dense[i+1:], func(o program.Dense) bool { return o.In == op.In }) {
			r.env.recycle(src)
		}
	}
	if f != nil {
		for _, out := range outs {
			r.env.recycle(out)
		}
	}
}

// aggregate runs the next stage's compiled plan and returns its output.
func (r *run) aggregate(f *frontier) (*tensor.Tensor, error) {
	s := &r.m.prog.Stages[r.done]
	in := r.h
	ie := &exec.InferEnv{G: r.env.G, Pool: r.env.Pool, Result: r.env.get}
	if f != nil {
		ie.G = f.g
	}
	vfeat := make(map[string]*tensor.Tensor, len(s.Values)+len(s.Norms))
	var gathered []*tensor.Tensor // Self-side inputs drawn for f's rows
	bindVertex := func(key string, t *tensor.Tensor) {
		if vfeat[key] = r.side(f, t, s.Plan.Self(key)); vfeat[key] != t {
			gathered = append(gathered, vfeat[key])
		}
	}
	var efeat, params map[string]*tensor.Tensor // nil unless the plan is typed
	for _, v := range s.Values {
		t := in
		if v.Name != "" {
			t = r.vals[v.Name]
		}
		bindVertex(v.Key, t)
	}
	for _, n := range s.Norms {
		if n.Ref == program.NormEdgeRel {
			efeat = map[string]*tensor.Tensor{n.Key: r.env.norms[n.Ref]}
		} else {
			bindVertex(n.Key, r.env.norms[n.Ref])
		}
	}
	for _, p := range s.Params {
		if params == nil {
			params = map[string]*tensor.Tensor{}
		}
		params[p.Key] = r.m.weights[p.Name]
	}
	out, err := r.m.udfs[s.Plan].Infer(ie, vfeat, efeat, params)
	for _, t := range gathered {
		r.env.recycle(t)
	}
	if err != nil {
		return nil, err
	}
	if s.Binds("") {
		r.env.recycle(in)
	}
	return out, nil
}

// advance makes the stage's plan output out the next stage's input —
// over a frontier, one the next plan reads through Nbr is drawn over the
// neighbour-id space with f's rows set (a fragment's mirror rows then
// arrive by exchange).
func (r *run) advance(out *tensor.Tensor, f *frontier) {
	r.h = out
	r.done++
	if f != nil && r.done < len(r.m.prog.Stages) && slices.Contains(r.m.prog.Stages[r.done].Crossing(), "") {
		r.h = r.env.get(f.n, out.Cols())
		setRows(r.h, f.rows, out)
		r.env.recycle(out)
	}
}

// side is t as a plan over f reads it: whole, or gathered to f's rows —
// drawn from env — when read through Self. Without a frontier it is t.
func (r *run) side(f *frontier, t *tensor.Tensor, self bool) *tensor.Tensor {
	if f == nil || !self {
		return t
	}
	out := r.env.get(len(f.rows), t.Cols())
	for i, v := range f.rows {
		copy(out.Row(i), t.Row(int(v)))
	}
	return out
}

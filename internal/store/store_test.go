package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// testSource builds a random source: a Zipf graph (which naturally has
// zero-degree rows at small avg degree), gaussian features, random
// labels, optionally heterogeneous edge types.
func testSource(t testing.TB, seed int64, n, avg, dim, classes int, hetero bool) *Source {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ZipfDegree(rng, n, avg, 1.2)
	if hetero {
		g.EdgeTypes = make([]int32, g.M)
		for i := range g.EdgeTypes {
			g.EdgeTypes[i] = int32(rng.Intn(3))
		}
		g.NumEdgeTypes = 3
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return &Source{
		G:          g,
		Feat:       tensor.Randn(rng, 1, n, dim),
		Labels:     labels,
		NumClasses: classes,
	}
}

func writeTemp(t testing.TB, src *Source) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.sgs")
	if err := WriteFile(path, src); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

// requireEqualGraph asserts the store-loaded graph is bitwise-identical
// to the source graph, array by array.
func requireEqualGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.N != want.N || got.M != want.M || got.NumEdgeTypes != want.NumEdgeTypes {
		t.Fatalf("dims: got N=%d M=%d R=%d, want N=%d M=%d R=%d",
			got.N, got.M, got.NumEdgeTypes, want.N, want.M, want.NumEdgeTypes)
	}
	eqI64 := func(name string, a, b []int64) {
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %d vs %d", name, i, b[i], a[i])
			}
		}
	}
	eqI32 := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %d vs %d", name, i, b[i], a[i])
			}
		}
	}
	eqI64("in.offsets", want.In.Offsets, got.In.Offsets)
	eqI32("in.nbrs", want.In.Nbrs, got.In.Nbrs)
	eqI32("in.eids", want.In.EdgeIDs, got.In.EdgeIDs)
	eqI32("in.rowids", want.In.RowIDs, got.In.RowIDs)
	eqI64("out.offsets", want.Out.Offsets, got.Out.Offsets)
	eqI32("out.nbrs", want.Out.Nbrs, got.Out.Nbrs)
	eqI32("out.eids", want.Out.EdgeIDs, got.Out.EdgeIDs)
	eqI32("out.rowids", want.Out.RowIDs, got.Out.RowIDs)
	eqI32("srcs", want.Srcs, got.Srcs)
	eqI32("dsts", want.Dsts, got.Dsts)
	eqI32("edgetypes", want.EdgeTypes, got.EdgeTypes)
	if got.In.Sorted || got.Out.Sorted {
		t.Fatalf("loaded CSRs claim sorted")
	}
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hetero bool
		dim    int
	}{
		{"homogeneous", false, 16},
		{"hetero", true, 16},
		{"empty-features", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := testSource(t, 7, 500, 4, tc.dim, 6, tc.hetero)
			st, err := Open(writeTemp(t, src))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer st.Close()

			requireEqualGraph(t, src.G, st.Graph())
			if err := st.Graph().Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if st.FeatDim() != tc.dim || st.Features().Rows() != 500 || st.Features().Cols() != tc.dim {
				t.Fatalf("features: got %dx%d dim %d", st.Features().Rows(), st.Features().Cols(), st.FeatDim())
			}
			wantF, gotF := src.Feat.Data(), st.Features().Data()
			if len(wantF) != len(gotF) {
				t.Fatalf("feature len %d vs %d", len(gotF), len(wantF))
			}
			for i := range wantF {
				if wantF[i] != gotF[i] {
					t.Fatalf("feat[%d]: %v vs %v", i, gotF[i], wantF[i])
				}
			}
			if st.NumClasses() != 6 {
				t.Fatalf("classes %d", st.NumClasses())
			}
			for i, l := range st.Labels() {
				if l != src.Labels[i] {
					t.Fatalf("label[%d]: %d vs %d", i, l, src.Labels[i])
				}
			}
			if err := st.VerifyFingerprint(); err != nil {
				t.Fatalf("VerifyFingerprint: %v", err)
			}
		})
	}
}

// TestZeroDegreeRows pins the zero-degree edge case explicitly: a graph
// where several vertices have no in- or out-edges at all.
func TestZeroDegreeRows(t *testing.T) {
	// 6 vertices, edges only among {0,1,2}: vertices 3..5 are isolated.
	g, err := graph.FromEdges(6, []int32{0, 1, 2, 0}, []int32{1, 2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	src := &Source{G: g, Feat: tensor.Randn(rand.New(rand.NewSource(1)), 1, 6, 3), Labels: nil, NumClasses: 2}
	st, err := Open(writeTemp(t, src))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	requireEqualGraph(t, g, st.Graph())
	for v := 3; v < 6; v++ {
		if d := st.Graph().In.Degree(v); d != 0 {
			t.Fatalf("vertex %d in-degree %d, want 0", v, d)
		}
		if d := st.Graph().Out.Degree(v); d != 0 {
			t.Fatalf("vertex %d out-degree %d, want 0", v, d)
		}
	}
	// nil Labels stored as zeros.
	for i, l := range st.Labels() {
		if l != 0 {
			t.Fatalf("label[%d] = %d, want 0", i, l)
		}
	}
}

// TestOpenRejectsCorrupt covers the no-SIGBUS contract: truncated and
// corrupted files fail cleanly at Open, before anything is aliased.
func TestOpenRejectsCorrupt(t *testing.T) {
	src := testSource(t, 3, 300, 4, 8, 4, true)
	good := writeTemp(t, src)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	write := func(t *testing.T, b []byte) string {
		path := filepath.Join(t.TempDir(), "bad.sgs")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mustFail := func(t *testing.T, path, why string) {
		st, err := Open(path)
		if err == nil {
			st.Close()
			t.Fatalf("Open succeeded on %s", why)
		}
		t.Logf("%s: %v", why, err)
	}

	t.Run("empty", func(t *testing.T) { mustFail(t, write(t, nil), "empty file") })
	t.Run("sub-page", func(t *testing.T) { mustFail(t, write(t, data[:100]), "sub-page file") })
	t.Run("header-only", func(t *testing.T) { mustFail(t, write(t, data[:PageSize]), "header-only file") })
	t.Run("truncated-mid-section", func(t *testing.T) {
		mustFail(t, write(t, data[:len(data)/2]), "file cut mid-section")
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := bytes.Clone(data)
		b[0] ^= 0xff
		mustFail(t, write(t, b), "bad magic")
	})
	t.Run("bad-version", func(t *testing.T) {
		b := bytes.Clone(data)
		b[offVersion] = 99
		mustFail(t, write(t, b), "bad version (checksum catches or version check)")
	})
	t.Run("flipped-header-byte", func(t *testing.T) {
		b := bytes.Clone(data)
		b[offN] ^= 0x01 // dims no longer match checksum
		mustFail(t, write(t, b), "flipped dimension byte")
	})
	t.Run("payload-corruption-detected-by-verify", func(t *testing.T) {
		b := bytes.Clone(data)
		h, err := decodeHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		b[h.sections[secFeatures].off] ^= 0xff // first feature byte
		st, err := Open(write(t, b))
		if err != nil {
			t.Fatalf("Open should pass (header intact): %v", err)
		}
		defer st.Close()
		if err := st.VerifyFingerprint(); err == nil {
			t.Fatal("VerifyFingerprint missed payload corruption")
		}
	})
}

func TestWriteRejectsBadSources(t *testing.T) {
	src := testSource(t, 5, 100, 3, 4, 3, false)
	sorted := src.G.SortByDegree()
	bad := []*Source{
		{G: nil, Feat: src.Feat, NumClasses: 3},
		{G: sorted, Feat: src.Feat, NumClasses: 3},
		{G: src.G, Feat: nil, NumClasses: 3},
		{G: src.G, Feat: tensor.New(7, 3), NumClasses: 3},
		{G: src.G, Feat: src.Feat, Labels: make([]int, 5), NumClasses: 3},
	}
	var buf bytes.Buffer
	for i, s := range bad {
		if err := Write(&buf, s); err == nil {
			t.Fatalf("source %d accepted", i)
		}
	}
}

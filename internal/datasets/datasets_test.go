package datasets

import (
	"math"
	"slices"
	"testing"
)

func TestTable2Coverage(t *testing.T) {
	if len(Names()) != 12 {
		t.Fatalf("dataset count %d, want 12", len(Names()))
	}
	if len(Homogeneous()) != 9 || len(Heterogeneous()) != 3 {
		t.Fatal("homogeneous/heterogeneous split wrong")
	}
	for _, name := range Names() {
		n, m, feat, rel, err := Stats(name)
		if err != nil || n <= 0 || m <= 0 || feat <= 0 || rel <= 0 {
			t.Fatalf("%s stats: %d %d %d %d %v", name, n, m, feat, rel, err)
		}
	}
	if _, _, _, _, err := Stats("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadSmallDatasets(t *testing.T) {
	for _, name := range []string{"cora", "citeseer"} {
		d, err := Load(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.G.N != d.PaperN || d.G.M != d.PaperM {
			t.Fatalf("%s: %d/%d vs paper %d/%d", name, d.G.N, d.G.M, d.PaperN, d.PaperM)
		}
		if err := d.G.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.Feat.Rows() != d.G.N {
			t.Fatal("feature rows")
		}
		if len(d.Labels) != d.G.N {
			t.Fatal("label count")
		}
		for _, l := range d.Labels {
			if l < 0 || l >= d.NumClasses {
				t.Fatal("label out of range")
			}
		}
		// Masks partition the vertices.
		for i := 0; i < d.G.N; i++ {
			c := 0
			if d.TrainMask[i] {
				c++
			}
			if d.ValMask[i] {
				c++
			}
			if d.TestMask[i] {
				c++
			}
			if c != 1 {
				t.Fatalf("vertex %d in %d masks", i, c)
			}
		}
	}
}

func TestLoadScaledPreservesAvgDegree(t *testing.T) {
	d, err := Load("reddit", 1.0/64, 1)
	if err != nil {
		t.Fatal(err)
	}
	paperAvg := float64(d.PaperM) / float64(d.PaperN)
	if math.Abs(d.G.AvgDegree()-paperAvg)/paperAvg > 0.25 {
		t.Fatalf("scaled avg degree %.1f vs paper %.1f", d.G.AvgDegree(), paperAvg)
	}
	// Power-law: heavy tail present.
	if float64(d.G.In.MaxDegree()) < 3*d.G.AvgDegree() {
		t.Fatal("reddit-like graph lacks degree skew")
	}
}

func TestLoadHeteroDatasets(t *testing.T) {
	d, err := Load("aifb", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRelations != 90 || d.G.NumEdgeTypes != 90 {
		t.Fatalf("aifb relations: %d / %d", d.NumRelations, d.G.NumEdgeTypes)
	}
	// Edge types must be sorted within rows (required by hetero kernel).
	for k := 0; k < d.G.N; k++ {
		types := d.G.EdgeTypes[d.G.In.Offsets[k]:d.G.In.Offsets[k+1]] // a row's slots are its edge ids
		if !slices.IsSorted(types) {
			t.Fatal("edge types not sorted")
		}
	}
}

func TestLoadDeterminism(t *testing.T) {
	a := MustLoad("cora", 1, 7)
	b := MustLoad("cora", 1, 7)
	if a.G.M != b.G.M || a.Feat.At(0, 0) != b.Feat.At(0, 0) || a.Labels[5] != b.Labels[5] {
		t.Fatal("same seed must reproduce the dataset")
	}
	c := MustLoad("cora", 1, 8)
	if a.Feat.At(0, 0) == c.Feat.At(0, 0) {
		t.Fatal("different seed should differ")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("nope", 1, 1); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := Load("cora", 0, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := Load("cora", 2, 1); err == nil {
		t.Fatal("scale > 1 accepted")
	}
}

func TestDefaultScales(t *testing.T) {
	if DefaultScale("reddit") >= 1 || DefaultScale("cora") != 1 {
		t.Fatal("default scales")
	}
}

func TestRGCNEdgeNorm(t *testing.T) {
	d := MustLoad("mutag", 0.05, 4)
	norm := RGCNEdgeNorm(d.G)
	// For every edge, 1/norm must equal the count of same-type in-edges
	// at its destination.
	for e := 0; e < d.G.M; e++ {
		count := 0
		for e2 := 0; e2 < d.G.M; e2++ {
			if d.G.Dsts[e2] == d.G.Dsts[e] && d.G.EdgeTypes[e2] == d.G.EdgeTypes[e] {
				count++
			}
		}
		if math.Abs(float64(norm.At(e, 0))-1/float64(count)) > 1e-6 {
			t.Fatalf("edge %d norm %v, count %d", e, norm.At(e, 0), count)
		}
	}
}

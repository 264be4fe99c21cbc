package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// GNM samples a uniform random directed graph with n vertices and m
// distinct edges (no self loops). It panics if m exceeds n*(n-1) for small
// n; for large graphs collisions are resampled.
func GNM(rng *rand.Rand, n, m int) *Graph {
	if n < 1 {
		panic("graph: GNM needs n >= 1")
	}
	maxEdges := n * (n - 1)
	if n < 4096 && m > maxEdges {
		panic(fmt.Sprintf("graph: GNM m=%d exceeds max %d", m, maxEdges))
	}
	seen := make(map[int64]struct{}, m)
	srcs := make([]int32, 0, m)
	dsts := make([]int32, 0, m)
	for len(srcs) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		srcs = append(srcs, u)
		dsts = append(dsts, v)
	}
	g, err := FromEdges(n, srcs, dsts)
	if err != nil {
		panic(err)
	}
	return g
}

// PowerLaw generates a directed graph with a skewed in-degree
// distribution via preferential attachment: vertices arrive in order and
// each new vertex emits edges to earlier vertices chosen proportionally to
// their current in-degree (plus one). This produces the heavy-tailed
// degree skew of graphs like reddit that the paper's dynamic load
// balancing targets (§6.3.3).
func PowerLaw(rng *rand.Rand, n, edgesPerVertex int) *Graph {
	if n < 2 {
		panic("graph: PowerLaw needs n >= 2")
	}
	if edgesPerVertex < 1 {
		edgesPerVertex = 1
	}
	srcs := make([]int32, 0, n*edgesPerVertex)
	dsts := make([]int32, 0, n*edgesPerVertex)
	// Standard Barabási–Albert pool: both endpoints of every edge enter
	// the attachment pool, so sampling a uniform element is sampling
	// ∝ (degree + 1); hubs grow like m·√n rather than swallowing a
	// constant fraction of all edges.
	targets := make([]int32, 0, 2*n*edgesPerVertex)
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		k := edgesPerVertex
		if k > v {
			k = v
		}
		for i := 0; i < k; i++ {
			t := targets[rng.Intn(len(targets))]
			if t == int32(v) {
				// No self loops: the first v pool entries were appended
				// before vertex v and therefore name earlier vertices.
				t = targets[rng.Intn(v)]
			}
			srcs = append(srcs, int32(v))
			dsts = append(dsts, t)
			targets = append(targets, t, int32(v))
		}
	}
	g, err := FromEdges(n, srcs, dsts)
	if err != nil {
		panic(err)
	}
	return g
}

// ZipfDegree generates a directed graph whose in-degree sequence follows
// a rank-based Zipf law: the r-th highest-degree vertex receives
// in-degree ∝ 1/(r+1)^alpha, scaled so the average in-degree is avgDeg.
// Edge sources are uniform. With alpha around 1 the top ~10% of vertices
// hold the large majority of edges — the degree profile that makes
// equal-row-count CPU partitions pathological and that the paper's
// degree-sorting + dynamic load balancing targets (§6.3.3). Unlike
// PowerLaw (preferential attachment), the skew here is exact and
// tunable, which benchmarks need.
func ZipfDegree(rng *rand.Rand, n, avgDeg int, alpha float64) *Graph {
	if n < 2 {
		panic("graph: ZipfDegree needs n >= 2")
	}
	if avgDeg < 1 {
		avgDeg = 1
	}
	weights := make([]float64, n)
	var wsum float64
	for r := 0; r < n; r++ {
		weights[r] = math.Pow(float64(r+1), -alpha)
		wsum += weights[r]
	}
	scale := float64(n) * float64(avgDeg) / wsum
	// Ranks are assigned to shuffled vertex ids so callers exercise the
	// degree-sorting path rather than receiving a pre-sorted graph.
	perm := rng.Perm(n)
	srcs := make([]int32, 0, n*avgDeg)
	dsts := make([]int32, 0, n*avgDeg)
	for r := 0; r < n; r++ {
		v := int32(perm[r])
		deg := int(scale*weights[r] + 0.5)
		if deg > n-1 {
			deg = n - 1
		}
		for i := 0; i < deg; i++ {
			u := int32(rng.Intn(n))
			if u == v {
				u = (u + 1) % int32(n)
			}
			srcs = append(srcs, u)
			dsts = append(dsts, v)
		}
	}
	g, err := FromEdges(n, srcs, dsts)
	if err != nil {
		panic(err)
	}
	return g
}

// RandomEdgeTypes assigns each edge a uniform type in [0, numTypes) and
// attaches it to g.
func RandomEdgeTypes(rng *rand.Rand, g *Graph, numTypes int) {
	types := make([]int32, g.M)
	for i := range types {
		types[i] = int32(rng.Intn(numTypes))
	}
	if err := g.WithEdgeTypes(types, numTypes); err != nil {
		panic(err)
	}
}

// Star returns the graph with edges leaf_i → center for i in [1, n).
func Star(n int) *Graph {
	srcs := make([]int32, n-1)
	dsts := make([]int32, n-1)
	for i := 1; i < n; i++ {
		srcs[i-1] = int32(i)
	}
	g, err := FromEdges(n, srcs, dsts)
	if err != nil {
		panic(err)
	}
	return g
}

// Figure7 returns a 4-vertex, 7-edge example graph in the spirit of the
// paper's Figure 7 (vertices A=0, B=1, C=2, D=3), with in-degrees
// A:3, B:2, C:1, D:1 — small enough to check CSR layouts by hand in the
// unit tests.
func Figure7() *Graph {
	// Edge list (src→dst) with ids 0..6:
	edges := [][2]int32{
		{1, 0}, // 0: B→A
		{2, 0}, // 1: C→A
		{3, 0}, // 2: D→A
		{0, 1}, // 3: A→B
		{2, 1}, // 4: C→B
		{3, 2}, // 5: D→C
		{1, 3}, // 6: B→D
	}
	srcs := make([]int32, len(edges))
	dsts := make([]int32, len(edges))
	for i, e := range edges {
		srcs[i], dsts[i] = e[0], e[1]
	}
	g, err := FromEdges(4, srcs, dsts)
	if err != nil {
		panic(err)
	}
	return g
}

package main

import "sort"

// Reference answers computed from the benchmark's own adjacency model,
// sharing no code with the engine.

// twoHop returns the multiset of destinations two hops from src, sorted.
// With dedup each hop emits a vertex once, as the engine's Dedup does.
func (m *model) twoHop(src int, dedup bool, lo, hi int32) []int64 {
	var out []int64
	seen1 := map[int32]bool{}
	seen2 := map[int32]bool{}
	for _, a := range m.out(src) {
		if dedup {
			if seen1[a] {
				continue
			}
			seen1[a] = true
		}
		for _, b := range m.out(int(a)) {
			if b < lo || b > hi {
				continue
			}
			if dedup {
				if seen2[b] {
					continue
				}
				seen2[b] = true
			}
			out = append(out, int64(b))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// components counts weakly connected components by union-find.
func (m *model) components() int {
	parent := make([]int32, m.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	count := m.n
	for v := 0; v < m.n; v++ {
		for _, d := range m.out(v) {
			a, b := find(int32(v)), find(d)
			if a != b {
				parent[a] = b
				count--
			}
		}
	}
	return count
}

// bfs returns hop distances from src along out-edges, -1 when unreachable.
func (m *model) bfs(src int) []int64 {
	dist := make([]int64, m.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int32{int32(src)}
	for level := int64(1); len(frontier) > 0; level++ {
		var next []int32
		for _, v := range frontier {
			for _, d := range m.out(int(v)) {
				if dist[d] < 0 {
					dist[d] = level
					next = append(next, d)
				}
			}
		}
		frontier = next
	}
	return dist
}

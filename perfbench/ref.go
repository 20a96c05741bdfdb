package main

// The independent reference. It works on the benchmark's model graph and
// query types and calls nothing in the program's bsim, strongsim, match or
// rank packages:
//
//   - bounded and dual simulation as naive fixpoints: every round re-derives
//     each obligation with one multi-source BFS per pattern edge and
//     direction, until nothing is removed; M(Q,G) is empty when some pattern
//     node is left without matches;
//   - the result graph from its definition: for every pattern edge
//     (u,u',k) and every v in M(u), an edge v->w to each w in M(u') at
//     nonempty-path distance d <= k, weighted d;
//   - the rank f(uo,v) = (sum of dist(w,v) + sum of dist(v,w')) / |Vr'| over
//     the weighted result graph, with distances found by a FIFO
//     label-correcting search (Bellman-Ford order, not Dijkstra).

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// relation is M(Q,G): the sorted matches of every pattern node.
type relation [][]int32

// rankEntry is one ranked match of the output node.
type rankEntry struct {
	node      int32
	rank      float64
	connected int
}

// answer is everything a query's response is checked against.
type answer struct {
	rel         relation
	top         []rankEntry // the k best, best first
	resultEdges int
	scored      int
}

// within marks every node that has a nonempty path of length <= bound
// (bound < 0: any length) to (reverse=false) or from (reverse=true) some
// node of targets. It is a multi-source BFS against edge direction.
func (m *model) within(targets []bool, bound int, fromTargets bool) []bool {
	n := len(m.nodes)
	hit := make([]bool, n)
	dist := make([]int, n)
	var queue []int32
	// Seed with the nodes one hop from a target: a path must be nonempty,
	// so a target itself qualifies only through a cycle.
	for t := range targets {
		if !targets[t] {
			continue
		}
		next := m.in[t]
		if fromTargets {
			next = m.out[t]
		}
		for _, w := range next {
			if !hit[w] {
				hit[w], dist[w] = true, 1
				queue = append(queue, w)
			}
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if bound >= 0 && dist[v] >= bound {
			continue
		}
		next := m.in[v]
		if fromTargets {
			next = m.out[v]
		}
		for _, w := range next {
			if !hit[w] {
				hit[w], dist[w] = true, dist[v]+1
				queue = append(queue, w)
			}
		}
	}
	return hit
}

// simulate computes the maximum bounded simulation (dual=false) or bounded
// dual simulation (dual=true) of q on m.
func (m *model) simulate(q *query, dual bool) relation {
	cand := make([][]bool, len(q.nodes))
	for u := range q.nodes {
		cand[u] = make([]bool, len(m.nodes))
		for v, p := range m.nodes {
			cand[u][v] = q.matches(u, p)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range q.edges {
			ok := m.within(cand[e.to], e.bound, false)
			for v := range cand[e.from] {
				if cand[e.from][v] && !ok[v] {
					cand[e.from][v] = false
					changed = true
				}
			}
			if !dual {
				continue
			}
			ok = m.within(cand[e.from], e.bound, true)
			for v := range cand[e.to] {
				if cand[e.to][v] && !ok[v] {
					cand[e.to][v] = false
					changed = true
				}
			}
		}
	}
	rel := make(relation, len(q.nodes))
	for u := range cand {
		rel[u] = []int32{}
		for v, in := range cand[u] {
			if in {
				rel[u] = append(rel[u], int32(v))
			}
		}
	}
	// G matches Q only if every pattern node has a match; otherwise the
	// maximum match relation is empty.
	for u := range rel {
		if len(rel[u]) == 0 {
			for w := range rel {
				rel[w] = []int32{}
			}
			break
		}
	}
	return rel
}

// wedge is a weighted result-graph edge.
type wedge struct {
	to int32
	w  int
}

// resultGraph is the paper's result graph over the matched nodes.
type resultGraph struct {
	out, in map[int32][]wedge
	edges   int
}

// distancesFrom returns nonempty-path hop distances from v, up to bound
// (bound < 0: unbounded).
func (m *model) distancesFrom(v int32, bound int) map[int32]int {
	d := map[int32]int{}
	frontier := []int32{v}
	for depth := 1; len(frontier) > 0 && (bound < 0 || depth <= bound); depth++ {
		var next []int32
		for _, x := range frontier {
			for _, w := range m.out[x] {
				if _, seen := d[w]; !seen {
					d[w] = depth
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return d
}

func (m *model) buildResultGraph(q *query, rel relation) *resultGraph {
	rg := &resultGraph{out: map[int32][]wedge{}, in: map[int32][]wedge{}}
	seen := map[[2]int32]bool{}
	for _, e := range q.edges {
		targets := map[int32]bool{}
		for _, w := range rel[e.to] {
			targets[w] = true
		}
		for _, v := range rel[e.from] {
			for w, d := range m.distancesFrom(v, e.bound) {
				if !targets[w] || seen[[2]int32{v, w}] {
					continue
				}
				seen[[2]int32{v, w}] = true
				rg.out[v] = append(rg.out[v], wedge{w, d})
				rg.in[w] = append(rg.in[w], wedge{v, d})
				rg.edges++
			}
		}
	}
	return rg
}

// shortest runs a FIFO label-correcting search over the weighted result
// graph from src, along out-edges or (reverse) in-edges.
func (rg *resultGraph) shortest(src int32, reverse bool) map[int32]int {
	adj := rg.out
	if reverse {
		adj = rg.in
	}
	dist := map[int32]int{src: 0}
	queue := []int32{src}
	queued := map[int32]bool{src: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		queued[v] = false
		for _, e := range adj[v] {
			nd := dist[v] + e.w
			if cur, ok := dist[e.to]; !ok || nd < cur {
				dist[e.to] = nd
				if !queued[e.to] {
					queued[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
	}
	return dist
}

// rankAll ranks every match of the output node, best first, ties by id.
func rankAll(q *query, rel relation, rg *resultGraph) []rankEntry {
	var all []rankEntry
	for _, v := range rel[q.out] {
		down, up := rg.shortest(v, false), rg.shortest(v, true)
		sum := 0
		conn := map[int32]bool{}
		for w, d := range down {
			if w != v {
				sum += d
				conn[w] = true
			}
		}
		for w, d := range up {
			if w != v {
				sum += d
				conn[w] = true
			}
		}
		r := rankEntry{node: v, connected: len(conn), rank: math.Inf(1)}
		if len(conn) > 0 {
			r.rank = float64(sum) / float64(len(conn))
		}
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rank != all[j].rank {
			return all[i].rank < all[j].rank
		}
		return all[i].node < all[j].node
	})
	return all
}

// reference answers q on m from the definitions.
func (m *model) reference(q *query) answer {
	rel := m.simulate(q, q.dual)
	rg := m.buildResultGraph(q, rel)
	all := rankAll(q, rel, rg)
	top := all
	if q.k > 0 && q.k < len(top) {
		top = top[:q.k]
	}
	return answer{rel: rel, top: top, resultEdges: rg.edges, scored: len(rel[q.out])}
}

// sameRelation reports the first difference between two relations.
func sameRelation(got, want relation) error {
	if len(got) != len(want) {
		return fmt.Errorf("relation over %d pattern nodes, want %d", len(got), len(want))
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			return fmt.Errorf("pattern node %d: %d matches, want %d", u, len(got[u]), len(want[u]))
		}
		for i := range want[u] {
			if got[u][i] != want[u][i] {
				return fmt.Errorf("pattern node %d: match %d is %d, want %d", u, i, got[u][i], want[u][i])
			}
		}
	}
	return nil
}

// sameTop compares two top-K lists: same nodes in the same order, same
// connected counts, ranks within 1e-9.
func sameTop(got, want []rankEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-k has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.node != w.node || g.connected != w.connected || !(math.Abs(g.rank-w.rank) <= 1e-9 || g.rank == w.rank) {
			return fmt.Errorf("top-k entry %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// check compares a program answer with the reference answer.
func check(got, want answer) error {
	if err := sameRelation(got.rel, want.rel); err != nil {
		return err
	}
	return sameTop(got.top, want.top)
}

var errAnchor = errors.New("reference disagrees with the paper's Fig. 1")

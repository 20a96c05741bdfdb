package main

// The benchmark's own copy of the data graph and of the queries it sends.
// The reference (ref.go) evaluates against these, never against the
// program's graph or pattern types, so a fault in the program cannot hide
// behind the same fault in its oracle.

import (
	"fmt"
	"sort"
	"strings"

	"expfinder/internal/graph"
)

// person is one node of the model graph.
type person struct {
	label string
	exp   int64
	spec  string
	name  string
	alive bool
}

// model is an adjacency-list digraph with the attributes queries test.
type model struct {
	nodes  []person
	out    [][]int32
	in     [][]int32
	nEdges int
}

// modelOf copies a program graph into a model (node ids are kept).
func modelOf(g *graph.Graph) *model {
	m := &model{}
	for id := 0; id < g.MaxID(); id++ {
		n, ok := g.Node(graph.NodeID(id))
		if !ok {
			m.nodes = append(m.nodes, person{})
			m.out = append(m.out, nil)
			m.in = append(m.in, nil)
			continue
		}
		m.nodes = append(m.nodes, personOf(n.Label, n.Attrs))
		m.out = append(m.out, nil)
		m.in = append(m.in, nil)
	}
	for _, e := range g.Edges() {
		m.addEdge(int32(e.From), int32(e.To))
	}
	return m
}

func personOf(label string, attrs graph.Attrs) person {
	p := person{label: label, alive: true}
	if v, ok := attrs["experience"]; ok {
		p.exp = v.IntVal()
	}
	if v, ok := attrs["specialty"]; ok {
		p.spec = v.Str()
	}
	if v, ok := attrs["name"]; ok {
		p.name = v.Str()
	}
	return p
}

func (m *model) hasEdge(u, v int32) bool {
	for _, w := range m.out[u] {
		if w == v {
			return true
		}
	}
	return false
}

func (m *model) addEdge(u, v int32) {
	m.out[u] = append(m.out[u], v)
	m.in[v] = append(m.in[v], u)
	m.nEdges++
}

func drop(list []int32, x int32) []int32 {
	for i, y := range list {
		if y == x {
			return append(list[:i], list[i+1:]...)
		}
	}
	panic(fmt.Sprintf("model: %d not in list", x))
}

func (m *model) removeEdge(u, v int32) {
	m.out[u] = drop(m.out[u], v)
	m.in[v] = drop(m.in[v], u)
	m.nEdges--
}

func (m *model) addNode(p person) int32 {
	p.alive = true
	m.nodes = append(m.nodes, p)
	m.out = append(m.out, nil)
	m.in = append(m.in, nil)
	return int32(len(m.nodes) - 1)
}

func (m *model) removeNode(id int32) {
	for len(m.out[id]) > 0 {
		m.removeEdge(id, m.out[id][0])
	}
	for len(m.in[id]) > 0 {
		m.removeEdge(m.in[id][0], id)
	}
	m.nodes[id] = person{}
}

// sameAs reports how a program graph differs from the model: live node
// set, labels, attributes and edge set.
func (m *model) sameAs(g *graph.Graph) error {
	if g.MaxID() != len(m.nodes) {
		return fmt.Errorf("graph has %d node slots, model %d", g.MaxID(), len(m.nodes))
	}
	if g.NumEdges() != m.nEdges {
		return fmt.Errorf("graph has %d edges, model %d", g.NumEdges(), m.nEdges)
	}
	for id, p := range m.nodes {
		n, ok := g.Node(graph.NodeID(id))
		if ok != p.alive {
			return fmt.Errorf("node %d: live %v, model %v", id, ok, p.alive)
		}
		if !ok {
			continue
		}
		if personOf(n.Label, n.Attrs) != p {
			return fmt.Errorf("node %d: %+v, model %+v", id, personOf(n.Label, n.Attrs), p)
		}
		got := append([]int32(nil), toIDs(g.Out(graph.NodeID(id)))...)
		want := append([]int32(nil), m.out[id]...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("node %d: out %v, model %v", id, got, want)
		}
	}
	return nil
}

func toIDs(ns []graph.NodeID) []int32 {
	out := make([]int32, len(ns))
	for i, n := range ns {
		out[i] = int32(n)
	}
	return out
}

// qnode is a pattern node: a label, a minimum experience and optionally
// an exact specialty.
type qnode struct {
	label  string
	minExp int64
	spec   string
}

// qedge is a pattern edge; bound -1 is unbounded.
type qedge struct {
	from, to, bound int
}

// query is one expert-search request as the benchmark sends it.
type query struct {
	nodes []qnode
	edges []qedge
	out   int
	dual  bool
	k     int
	// prefix names the pattern nodes. Names are part of the program's
	// cache key but not of the answer, so a renamed query is a distinct
	// request doing the same work.
	prefix string
}

func (q *query) matches(u int, p person) bool {
	n := q.nodes[u]
	return p.alive && p.label == n.label && p.exp >= n.minExp && (n.spec == "" || p.spec == n.spec)
}

// nodeName is the DSL name of pattern node u.
func (q *query) nodeName(u int) string { return fmt.Sprintf("%su%d", q.prefix, u) }

// dsl renders the query in the program's pattern language.
func (q *query) dsl() string {
	var b strings.Builder
	for u, n := range q.nodes {
		fmt.Fprintf(&b, "node %s [label = %q, experience >= %d", q.nodeName(u), n.label, n.minExp)
		if n.spec != "" {
			fmt.Fprintf(&b, ", specialty = %q", n.spec)
		}
		b.WriteString("]")
		if u == q.out {
			b.WriteString(" output")
		}
		b.WriteByte('\n')
	}
	for _, e := range q.edges {
		bound := "*"
		if e.bound >= 0 {
			bound = fmt.Sprint(e.bound)
		}
		fmt.Fprintf(&b, "edge %s -> %s bound %s\n", q.nodeName(e.from), q.nodeName(e.to), bound)
	}
	return b.String()
}

func sortIDs(ids []int32) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }

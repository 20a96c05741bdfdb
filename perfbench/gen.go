package main

// Seeded input generators. Every input the program receives comes from
// here, drawn from math/rand sources seeded by --seed or by the fixed
// templateSeed, so one seed gives byte-identical inputs (ref_test.go
// checks it).

import (
	"fmt"
	"math/rand"
)

var (
	fields = []string{"SA", "SD", "BA", "ST", "PM", "GD", "DBA", "QA"}
	// roles are the member fields of the collaboration generator's teams;
	// patterns below a leader draw from them so most queries have matches.
	roles       = []string{"SD", "BA", "ST", "QA", "PM", "GD", "DBA"}
	specialties = map[string][]string{
		"SA":  {"System Architect", "Solution Architect"},
		"SD":  {"Programmer", "DBA", "DevOps"},
		"BA":  {"Business Analyst", "Product Analyst"},
		"ST":  {"Tester", "Automation Tester"},
		"PM":  {"Project Manager"},
		"GD":  {"Graphic Designer"},
		"DBA": {"Database Administrator"},
		"QA":  {"Quality Engineer"},
	}
)

// coldRound is the make-up of one round of cold-search requests: every
// round sends one query of each kind, in this order.
var coldRound = []string{
	"fig1", "tree", "cycle", "fig1", "tree", "plain", "tree", "fig1",
	"cycle", "tree", "dual-fig1", "tree", "unbounded", "fig1", "dual-tree", "cycle",
}

// queryGen draws distinct queries: a query whose DSL was already drawn is
// redrawn, so no two requests share a result-cache key.
type queryGen struct {
	r    *rand.Rand
	seen map[string]bool
}

func newQueryGen(seed int64) *queryGen {
	return &queryGen{r: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (g *queryGen) bound() int { return 1 + g.r.Intn(3) }

func (g *queryGen) role() string { return roles[g.r.Intn(len(roles))] }

// fig1 is the paper's Fig. 1 shape: an architect leading developers and an
// analyst, the developers working with a tester.
func (g *queryGen) fig1() query {
	return query{
		nodes: []qnode{
			{label: "SA", minExp: int64(4 + g.r.Intn(8))},
			{label: "SD", minExp: int64(g.r.Intn(5))},
			{label: "BA", minExp: int64(g.r.Intn(5))},
			{label: "ST", minExp: int64(g.r.Intn(5))},
		},
		edges: []qedge{{0, 1, g.bound()}, {0, 2, g.bound()}, {1, 3, g.bound()}, {3, 1, g.bound()}},
		out:   0,
		k:     5,
	}
}

// tree is a random out-tree of 3-5 nodes rooted at the output node.
func (g *queryGen) tree(plain bool) query {
	n := 3 + g.r.Intn(3)
	q := query{out: 0, k: 5}
	root := "SA"
	if g.r.Intn(3) == 0 {
		root = fields[g.r.Intn(len(fields))]
	}
	q.nodes = append(q.nodes, qnode{label: root, minExp: int64(2 + g.r.Intn(9))})
	for u := 1; u < n; u++ {
		q.nodes = append(q.nodes, qnode{label: g.role(), minExp: int64(g.r.Intn(6))})
		b := g.bound()
		if plain {
			b = 1
		}
		q.edges = append(q.edges, qedge{g.r.Intn(u), u, b})
	}
	return q
}

// cycle is a directed cycle of 2-4 nodes through the output node.
func (g *queryGen) cycle() query {
	n := 2 + g.r.Intn(3)
	q := query{out: 0, k: 5}
	q.nodes = append(q.nodes, qnode{label: "SA", minExp: int64(3 + g.r.Intn(9))})
	for u := 1; u < n; u++ {
		q.nodes = append(q.nodes, qnode{label: g.role(), minExp: int64(g.r.Intn(6))})
	}
	for u := 0; u < n; u++ {
		q.edges = append(q.edges, qedge{u, (u + 1) % n, g.bound()})
	}
	return q
}

// draw returns a query of the given kind, distinct from every earlier one.
func (g *queryGen) draw(kind string) query {
	for {
		var q query
		switch kind {
		case "fig1":
			q = g.fig1()
		case "tree":
			q = g.tree(false)
		case "plain":
			q = g.tree(true)
		case "cycle":
			q = g.cycle()
		case "dual-fig1":
			q = g.fig1()
			q.dual = true
		case "dual-tree":
			q = g.tree(false)
			q.dual = true
		case "unbounded":
			// The unbounded edge leaves a selective root: a full BFS per
			// root match is the cost, and it stays a small share.
			q = g.tree(false)
			q.nodes[0] = qnode{label: "SA", minExp: int64(10 + g.r.Intn(4))}
			q.edges[0].bound = -1
		default:
			panic("unknown query kind " + kind)
		}
		key := q.dsl()
		if q.dual {
			key += "dual"
		}
		if !g.seen[key] {
			g.seen[key] = true
			return q
		}
	}
}

// templateSeed draws the cold-search templates and the hot-serve set. Like
// the graph they are part of the workload's definition; --seed drives the
// order, names and popularity of the requests made from them, so every run
// does the same mix of work and its figures compare across seeds.
const templateSeed = 1

// coldTemplateRounds is how many queries of each kind in coldRound the
// cold-search template set holds.
const coldTemplateRounds = 3

// maxRankWork caps a cold-search template's ranking work, its scored
// matches times its result-graph edges (one weighted search per match over
// the result graph). A template above it is redrawn, so no single query
// dominates a run's time and its figures.
const maxRankWork = 1_000_000

// coldTemplates draws the cold-search query templates against the
// generated graph m and returns them with their reference answers.
func coldTemplates(m *model) ([]query, []answer) {
	g := newQueryGen(templateSeed)
	var qs []query
	var refs []answer
	for i := 0; i < coldTemplateRounds; i++ {
		for _, kind := range coldRound {
			for {
				q := g.draw(kind)
				a := m.reference(&q)
				if a.scored*a.resultEdges <= maxRankWork {
					qs, refs = append(qs, q), append(refs, a)
					break
				}
			}
		}
	}
	return qs, refs
}

// coldOrder draws one round of cold-search requests: every template once,
// in a seeded order, under pattern-node names no earlier round used, so
// each request misses the result cache.
func coldOrder(r *rand.Rand, round int) (order []int, prefix string) {
	return r.Perm(len(coldRound) * coldTemplateRounds), fmt.Sprintf("r%d%c", round, 'a'+rune(r.Intn(26)))
}

// hotSetSize is the number of distinct queries hot-serve repeats.
const hotSetSize = 32

// hotRoundLen is the number of requests in one hot-serve round.
const hotRoundLen = 512

// hotSet draws the hot-serve query set: bounded queries only (no dual, no
// unbounded edges), so every one is served through the result cache.
func hotSet() []query {
	g := newQueryGen(templateSeed)
	kinds := []string{"fig1", "tree", "cycle", "plain"}
	qs := make([]query, hotSetSize)
	for i := range qs {
		qs[i] = g.draw(kinds[i%len(kinds)])
	}
	return qs
}

// hotSequence draws one round of hot-serve requests as indexes into the hot
// set, Zipf-distributed (s = 1.1) so a few queries dominate.
func hotSequence(r *rand.Rand) []int {
	z := rand.NewZipf(r, 1.1, 1, hotSetSize-1)
	seq := make([]int, hotRoundLen)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// opKind names one request of the update stream.
type opKind int

const (
	opBatch      opKind = iota // paired edge deletions and insertions
	opAddNode                  // add a node
	opWire                     // insert the edges of the node just added
	opSetAttr                  // change one node's experience
	opRemoveNode               // remove the node added this cycle
	opRebuild                  // rebuild the distance index
	opRead                     // a selective read of one plan shape
)

// updateCycle is one cycle of the update stream. One round is
// cyclesPerRound cycles; the checkpoint runs at the start of cycle
// checkpointCycle, so the WAL a restart replays always holds the records
// of the same number of cycles.
var updateCycle = []struct {
	kind  opKind
	shape string // read shape, for opRead
}{
	{opRebuild, ""},
	{opRead, "indexed"},
	{opBatch, ""}, {opBatch, ""}, {opBatch, ""},
	{opRead, "partitioned"},
	{opAddNode, ""}, {opWire, ""},
	{opBatch, ""},
	{opRead, "compressed"},
	{opSetAttr, ""},
	{opBatch, ""}, {opBatch, ""},
	{opRead, "direct"},
	{opRemoveNode, ""},
	{opBatch, ""}, {opBatch, ""},
	{opRead, "partitioned"},
}

const (
	cyclesPerRound  = 8
	checkpointCycle = 4
	// pairsPerBatch is the number of (delete, insert) pairs in one batch.
	pairsPerBatch = 4
	// wireEdges is the number of edges the added node gets.
	wireEdges = 3
	// indexLandmarks sizes the distance index: partial, so probes the
	// labels cannot decide take the BFS fallback.
	indexLandmarks = 64
)

// edgeOp is one edge insertion or deletion.
type edgeOp struct {
	insert   bool
	from, to int32
}

// streamGen draws the update stream against the model as it evolves. The
// deletions pick uniformly among the edges of the original graph; each is
// paired with the re-insertion of the oldest edge in a pool of removed
// ones, so the edge count stays level and the graph keeps its shape.
type streamGen struct {
	r     *rand.Rand
	m     *model
	orig  int32      // nodes below orig belong to the generated graph
	edges [][2]int32 // deletable edges
	pos   map[[2]int32]int
	pool  [][2]int32 // removed edges, oldest first
}

// newStreamGen removes poolSize random edges from m into the pool; the
// caller removes the same edges from the program's graph before loading it.
func newStreamGen(seed int64, m *model, poolSize int) *streamGen {
	s := &streamGen{r: rand.New(rand.NewSource(seed)), m: m, orig: int32(len(m.nodes)), pos: map[[2]int32]int{}}
	for u := range m.out {
		for _, v := range m.out[u] {
			s.add([2]int32{int32(u), v})
		}
	}
	for i := 0; i < poolSize; i++ {
		e := s.edges[s.r.Intn(len(s.edges))]
		s.del(e)
		m.removeEdge(e[0], e[1])
		s.pool = append(s.pool, e)
	}
	return s
}

func (s *streamGen) add(e [2]int32) {
	s.pos[e] = len(s.edges)
	s.edges = append(s.edges, e)
}

func (s *streamGen) del(e [2]int32) {
	i := s.pos[e]
	last := s.edges[len(s.edges)-1]
	s.edges[i] = last
	s.pos[last] = i
	s.edges = s.edges[:len(s.edges)-1]
	delete(s.pos, e)
}

// batch draws one paired batch and applies it to the model.
func (s *streamGen) batch() []edgeOp {
	ops := make([]edgeOp, 0, 2*pairsPerBatch)
	var deleted [][2]int32
	for i := 0; i < pairsPerBatch; i++ {
		e := s.edges[s.r.Intn(len(s.edges))]
		s.del(e)
		s.m.removeEdge(e[0], e[1])
		deleted = append(deleted, e)
		ins := s.pool[0]
		s.pool = s.pool[1:]
		s.m.addEdge(ins[0], ins[1])
		ops = append(ops, edgeOp{false, e[0], e[1]}, edgeOp{true, ins[0], ins[1]})
	}
	for _, e := range deleted {
		s.pool = append(s.pool, e)
	}
	for _, op := range ops {
		if op.insert {
			s.add([2]int32{op.from, op.to})
		}
	}
	return ops
}

// randomOrig returns a random live node of the generated graph.
func (s *streamGen) randomOrig() int32 { return int32(s.r.Intn(int(s.orig))) }

// newPerson draws the attributes of an added node.
func (s *streamGen) newPerson(i int) person {
	f := fields[s.r.Intn(len(fields))]
	sp := specialties[f]
	return person{label: f, exp: int64(s.r.Intn(15)), spec: sp[s.r.Intn(len(sp))], name: fmt.Sprintf("s%d", i)}
}

// wire draws wireEdges distinct edges between the added node id and the
// generated graph and applies them to the model.
func (s *streamGen) wire(id int32) []edgeOp {
	var ops []edgeOp
	for len(ops) < wireEdges {
		o := s.randomOrig()
		op := edgeOp{true, o, id}
		if len(ops)%2 == 1 {
			op = edgeOp{true, id, o}
		}
		if s.m.hasEdge(op.from, op.to) {
			continue
		}
		s.m.addEdge(op.from, op.to)
		ops = append(ops, op)
	}
	return ops
}

// readTemplates is how many fixed selective reads each shape rotates
// through.
const readTemplates = 4

// reads draws the update-stream's selective reads from templateSeed, so the
// read mix is the same in every run: per shape, readTemplates queries whose
// shape routes them to one plan. Bounds 2-3 with no unbounded edge go to the
// partitioned plan; an unbounded edge, right after an index rebuild, to the
// indexed plan; all bounds 1 over label and experience to the compressed
// graph; all bounds 1 with a specialty test (outside the compressed view)
// to the direct plan.
func reads() map[string][]query {
	r := rand.New(rand.NewSource(templateSeed))
	lead := func(min int) qnode { return qnode{label: "SA", minExp: int64(min + r.Intn(14-min))} }
	member := func() qnode { return qnode{label: roles[r.Intn(len(roles))], minExp: int64(2 + r.Intn(4))} }
	out := map[string][]query{}
	for i := 0; i < readTemplates; i++ {
		out["partitioned"] = append(out["partitioned"], query{nodes: []qnode{lead(9), member(), member()},
			edges: []qedge{{0, 1, 2 + r.Intn(2)}, {1, 2, 2}}, out: 0, k: 5})
		out["indexed"] = append(out["indexed"], query{nodes: []qnode{lead(12), member()},
			edges: []qedge{{0, 1, -1}}, out: 0, k: 5})
		out["compressed"] = append(out["compressed"], query{nodes: []qnode{lead(9), member()},
			edges: []qedge{{0, 1, 1}, {1, 0, 1}}, out: 0, k: 5})
		m := member()
		m.spec = specialties[m.label][r.Intn(len(specialties[m.label]))]
		out["direct"] = append(out["direct"], query{nodes: []qnode{lead(9), m},
			edges: []qedge{{0, 1, 1}}, out: 0, k: 5})
	}
	return out
}

// standing returns the standing queries: the first two are registered for
// incremental maintenance, the last two are K=0 subscriptions.
func standing() []query {
	sa := qnode{label: "SA", minExp: 10}
	return []query{
		{nodes: []qnode{sa, {label: "SD", minExp: 3}, {label: "ST", minExp: 2}}, edges: []qedge{{0, 1, 2}, {1, 2, 2}}, out: 0},
		{nodes: []qnode{{label: "PM", minExp: 2}, {label: "GD", minExp: 2}}, edges: []qedge{{0, 1, 2}, {1, 0, 3}}, out: 0},
		{nodes: []qnode{sa, {label: "BA", minExp: 3}}, edges: []qedge{{0, 1, 2}}, out: 0},
		{nodes: []qnode{{label: "QA", minExp: 4}, {label: "SD", minExp: 2}}, edges: []qedge{{0, 1, 1}, {1, 0, 2}}, out: 0},
	}
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestReferenceMatchesFig1(t *testing.T) {
	if err := checkFig1(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejectsTamperedAnswers shows the checks catch a relation with
// one pair removed and a top-K with two entries swapped.
func TestCheckRejectsTamperedAnswers(t *testing.T) {
	m, q := fig1Model(), fig1Query()
	want := m.reference(&q)
	if err := check(want, want); err != nil {
		t.Fatalf("reference rejects itself: %v", err)
	}
	for u := range want.rel {
		for i := range want.rel[u] {
			got := copyAnswer(want)
			got.rel[u] = append(got.rel[u][:i:i], got.rel[u][i+1:]...)
			if check(got, want) == nil {
				t.Errorf("relation without pair (%d, %d) accepted", u, want.rel[u][i])
			}
		}
	}
	got := copyAnswer(want)
	got.top[0], got.top[1] = got.top[1], got.top[0]
	if check(got, want) == nil {
		t.Error("top-k with its first two entries swapped accepted")
	}
}

func copyAnswer(a answer) answer {
	c := answer{rel: make(relation, len(a.rel)), top: append([]rankEntry(nil), a.top...)}
	for u := range a.rel {
		c.rel[u] = append([]int32(nil), a.rel[u]...)
	}
	return c
}

// TestDualPrunesParentless checks the dual fixpoint's extra obligation: a
// match needs a matching parent for every pattern in-edge.
func TestDualPrunesParentless(t *testing.T) {
	m := &model{}
	a := m.addNode(person{label: "A"})
	b := m.addNode(person{label: "B"})
	b2 := m.addNode(person{label: "B"})
	m.addEdge(a, b)
	q := query{nodes: []qnode{{label: "A"}, {label: "B"}}, edges: []qedge{{0, 1, 1}}, out: 0}
	if got := m.simulate(&q, false); len(got[1]) != 2 {
		t.Fatalf("bounded simulation matches %v for B, want both", got[1])
	}
	got := m.simulate(&q, true)
	if len(got[1]) != 1 || got[1][0] != b {
		t.Fatalf("dual simulation matches %v for B, want only %d (not %d)", got[1], b, b2)
	}
}

// inputs renders everything the generators give the program for one seed.
func inputs(seed int64) []byte {
	var b bytes.Buffer
	templates, _ := coldTemplates(testModel())
	r := rand.New(rand.NewSource(seed))
	for round := 0; round < 3; round++ {
		order, prefix := coldOrder(r, round)
		for _, i := range order {
			q := templates[i]
			q.prefix = prefix
			fmt.Fprintf(&b, "%s|%v|%d\n", q.dsl(), q.dual, q.k)
		}
	}
	for _, q := range hotSet() {
		b.WriteString(q.dsl())
	}
	fmt.Fprint(&b, hotSequence(r))
	m := testModel()
	s := newStreamGen(seed, m, 8)
	for i := 0; i < 5; i++ {
		fmt.Fprint(&b, s.batch())
		id := m.addNode(s.newPerson(i))
		fmt.Fprint(&b, s.wire(id))
		m.removeNode(id)
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := inputs(7), inputs(7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two different inputs")
	}
	if bytes.Equal(a, inputs(8)) {
		t.Fatal("two seeds gave the same inputs")
	}
}

// TestStreamKeepsEdgeCountLevel checks that paired batches never change the
// edge count and that a node removal takes its wire edges with it.
func TestStreamKeepsEdgeCountLevel(t *testing.T) {
	m := testModel()
	s := newStreamGen(3, m, 8)
	level := m.nEdges
	for i := 0; i < 20; i++ {
		s.batch()
		if m.nEdges != level {
			t.Fatalf("batch %d: %d edges, want %d", i, m.nEdges, level)
		}
		id := m.addNode(s.newPerson(i))
		s.wire(id)
		m.removeNode(id)
		if m.nEdges != level {
			t.Fatalf("node cycle %d: %d edges, want %d", i, m.nEdges, level)
		}
	}
}

// testModel is a 40-node graph with two distinct out-edges per node.
func testModel() *model {
	m := &model{}
	const n = 40
	for i := 0; i < n; i++ {
		m.addNode(person{label: fields[i%len(fields)], exp: int64(i % 15)})
	}
	for i := int32(0); i < n; i++ {
		m.addEdge(i, (i+1)%n)
		m.addEdge(i, (i+7)%n)
	}
	return m
}

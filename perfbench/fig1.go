package main

// The paper's Fig. 1 collaboration network and query, written out here so
// the reference is anchored to the paper's own numbers (Examples 1-3):
// M(Q,G) has 7 pairs, f(SA,Bob) = 9/5, f(SA,Walt) = 7/3, and inserting
// e1 = (Fred, Pat) adds exactly (SD, Fred).

import (
	"fmt"
	"math"
)

// fig1People lists name, field, specialty and experience; ids are the
// list positions.
var fig1People = []person{
	{name: "Bob", label: "SA", spec: "System Architect", exp: 7},
	{name: "Walt", label: "SA", spec: "System Architect", exp: 5},
	{name: "Bill", label: "GD", spec: "Graphic Designer", exp: 2},
	{name: "Jean", label: "BA", spec: "Business Analyst", exp: 3},
	{name: "Dan", label: "SD", spec: "Programmer", exp: 3},
	{name: "Mat", label: "SD", spec: "Programmer", exp: 4},
	{name: "Pat", label: "SD", spec: "DBA", exp: 3},
	{name: "Fred", label: "SD", spec: "DBA", exp: 2},
	{name: "Eva", label: "ST", spec: "Tester", exp: 2},
	{name: "Tess", label: "ST", spec: "Tester", exp: 1},
}

const (
	bob, walt, bill, jean, dan, mat, pat, fred, eva, tess = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
)

var fig1Edges = [][2]int32{
	{bob, dan}, {bob, mat}, {bob, bill}, {bill, pat}, {pat, jean}, {dan, eva},
	{mat, dan}, {pat, eva}, {eva, pat}, {walt, bill}, {walt, fred}, {fred, jean},
	{fred, tess}, {tess, fred},
}

// fig1E1 is the update edge of Example 3.
var fig1E1 = [2]int32{fred, pat}

func fig1Model() *model {
	m := &model{}
	for _, p := range fig1People {
		m.addNode(p)
	}
	for _, e := range fig1Edges {
		m.addEdge(e[0], e[1])
	}
	return m
}

// fig1Query is Q of Fig. 1.
func fig1Query() query {
	return query{
		nodes: []qnode{{label: "SA", minExp: 5}, {label: "SD", minExp: 2}, {label: "BA", minExp: 3}, {label: "ST", minExp: 2}},
		edges: []qedge{{0, 1, 2}, {0, 2, 3}, {1, 3, 2}, {3, 1, 1}},
		out:   0,
		k:     2,
	}
}

// checkFig1 verifies the reference against the paper's numbers.
func checkFig1() error {
	m, q := fig1Model(), fig1Query()
	a := m.reference(&q)
	pairs := 0
	for _, ms := range a.rel {
		pairs += len(ms)
	}
	if pairs != 7 {
		return fmt.Errorf("%w: M(Q,G) has %d pairs, want 7", errAnchor, pairs)
	}
	if len(a.top) != 2 || a.top[0].node != bob || a.top[1].node != walt ||
		math.Abs(a.top[0].rank-9.0/5) > 1e-12 || math.Abs(a.top[1].rank-7.0/3) > 1e-12 {
		return fmt.Errorf("%w: top-2 %+v, want Bob 9/5 then Walt 7/3", errAnchor, a.top)
	}
	m.addEdge(fig1E1[0], fig1E1[1])
	b := m.reference(&q)
	for u := range a.rel {
		added := len(b.rel[u]) - len(a.rel[u])
		want := 0
		if u == 1 {
			want = 1 // (SD, Fred)
		}
		if added != want || (u == 1 && !contains(b.rel[u], fred)) {
			return fmt.Errorf("%w: inserting e1 changes pattern node %d from %v to %v", errAnchor, u, a.rel[u], b.rel[u])
		}
	}
	return nil
}

func contains(list []int32, x int32) bool {
	for _, y := range list {
		if y == x {
			return true
		}
	}
	return false
}

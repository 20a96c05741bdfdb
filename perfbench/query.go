package main

// cold-search and hot-serve: a closed-loop client sending expert searches
// to one generated collaboration graph.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/pattern"
	"expfinder/internal/strongsim"
)

const (
	graphName = "collab"
	// queryNodes sizes the cold-search and hot-serve graph.
	queryNodes = 5000
	avgDegree  = 3
	// graphSeed fixes the generated graph: it is part of each workload's
	// definition, and --seed varies only the requests sent to it, so runs
	// with different seeds measure the same system on different traffic.
	graphSeed = 1
)

// phases accumulates per-phase set-up times over the repeated set-ups.
type phases map[string]*samples

// time runs fn, adds its duration in seconds to phase name and to the
// set-up total of this set-up.
func (p phases) time(total *float64, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	if p[name] == nil {
		p[name] = &samples{}
	}
	p[name].add(d)
	*total += d
	return err
}

// generate is the timed graph-generation phase.
func generate(p phases, total *float64, nodes int) (*graph.Graph, error) {
	var g *graph.Graph
	err := p.time(total, "generator.graph_s", func() (err error) {
		g, err = generator.Collaboration(generator.Config{Nodes: nodes, AvgDegree: avgDegree, Seed: graphSeed})
		return err
	})
	return g, err
}

// queryEnv is a set-up query workload.
type queryEnv struct {
	st *stack
	m  *model
	g  *graph.Graph // a private copy of the loaded graph, for timing eval layers directly
}

// setupQuery generates the graph, loads it into a fresh stack and runs
// warm (the hot-serve cache fill) if given.
func setupQuery(p phases, warm func(*stack) error) (*queryEnv, float64, error) {
	return timeSetups(func(int) (*queryEnv, float64, error) {
		total := 0.0
		g, err := generate(p, &total, queryNodes)
		if err != nil {
			return nil, 0, err
		}
		env := &queryEnv{m: modelOf(g), g: g.Clone()}
		if env.st, err = newStack(""); err != nil {
			return nil, 0, err
		}
		if err := p.time(&total, "engine.add_graph_s", func() error { return env.st.eng.AddGraph(graphName, g) }); err != nil {
			return nil, 0, err
		}
		if warm != nil {
			if err := p.time(&total, "cache.warm_s", func() error { return warm(env.st) }); err != nil {
				return nil, 0, err
			}
		}
		return env, total, nil
	}, func(env *queryEnv) { env.st.close() })
}

// checkPaper sends Fig. 1's query to the program on Fig. 1's graph, before
// and after inserting e1, and compares the answers with the reference
// (whose own anchors checkFig1 verifies).
func checkPaper(res *result) {
	if err := checkFig1(); err != nil {
		res.wrong("%v", err)
	}
	st, err := newStack("")
	if err != nil {
		res.wrong("paper stack: %v", err)
		return
	}
	defer st.close()
	m := fig1Model()
	g := graph.New(len(m.nodes))
	for _, p := range m.nodes {
		g.AddNode(p.label, graph.Attrs{"name": graph.String(p.name), "specialty": graph.String(p.spec), "experience": graph.Int(p.exp)})
	}
	for _, e := range fig1Edges {
		_ = g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	if err := st.eng.AddGraph("paper", g); err != nil {
		res.wrong("paper graph: %v", err)
		return
	}
	q := fig1Query()
	for step := 0; step < 2; step++ {
		_, _, got, err := st.ask("paper", &q, false)
		if err != nil {
			res.wrong("paper query: %v", err)
			return
		}
		if err := check(got, m.reference(&q)); err != nil {
			res.wrong("paper query, step %d: %v", step, err)
		}
		if step == 0 {
			body := api.UpdateRequest{Ops: []api.UpdateOp{{Op: "insert", From: int64(fig1E1[0]), To: int64(fig1E1[1])}}}
			if _, err := st.do("POST", graphPath("paper", "/updates"), body); err != nil {
				res.wrong("paper update: %v", err)
				return
			}
			m.addEdge(fig1E1[0], fig1E1[1])
		}
	}
}

// queryLayers collects the per-layer numbers of traced query requests.
type queryLayers struct {
	spans      map[string]*samples // span name -> per-query durations, ms
	serverSelf samples             // request wall minus engine.query, ms
	respKB     samples
	unattrib   samples // share of engine.query not covered by its stage spans, %
	overTol    int     // traced queries whose stage spans miss engine.query by more than the tolerance
	edges      samples
	scored     samples
	dual       samples // strongsim.Dual timed directly, ms
	probes     float64
	fallbacks  float64
	messages   samples
	traced     samples // wall of traced requests, ms
	untraced   samples // wall of untraced requests, ms
	allocKB    samples
	gcPauseMS  float64
	gcQueries  int
}

func newQueryLayers() *queryLayers { return &queryLayers{spans: map[string]*samples{}} }

// observe folds one traced response into the layer samples.
func (l *queryLayers) observe(rp reply, resp *api.QueryResponse, ref answer) {
	l.traced.addDur(rp.wall)
	l.respKB.add(float64(len(rp.body)) / 1024)
	l.edges.add(float64(ref.resultEdges))
	l.scored.add(float64(ref.scored))
	tj := resp.Trace
	if tj == nil {
		return
	}
	eq := tj.Find("engine.query")
	if eq == nil {
		return // the dual route emits no engine.query span
	}
	l.serverSelf.add(ms(rp.wall) - float64(eq.DurationUS)/1000)
	covered := int64(0)
	for _, c := range eq.Children {
		covered += c.DurationUS
	}
	if eq.DurationUS > 0 {
		l.unattrib.add(100 * float64(eq.DurationUS-covered) / float64(eq.DurationUS))
	}
	if gap := float64(eq.DurationUS - covered); gap > spanTolerance*float64(eq.DurationUS)+spanSlackUS || gap < -spanSlackUS {
		l.overTol++
	}
	for _, c := range eq.Children {
		if l.spans[c.Name] == nil {
			l.spans[c.Name] = &samples{}
		}
		l.spans[c.Name].add(float64(c.DurationUS) / 1000)
		switch c.Name {
		case "eval.indexed":
			l.probes += num(c.Attrs["probes"])
			l.fallbacks += num(c.Attrs["fallbacks"])
		case "eval.partitioned":
			l.messages.add(num(c.Attrs["messages"]))
		}
	}
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// timeDual times the dual evaluation layer by calling strongsim directly.
func (l *queryLayers) timeDual(g *graph.Graph, q *query) error {
	p, err := pattern.Parse(q.dsl())
	if err != nil {
		return err
	}
	start := time.Now()
	strongsim.Dual(g, p)
	l.dual.addDur(time.Since(start))
	return nil
}

// untracedRequest sends one untraced request and records its wall time and
// allocations.
func (l *queryLayers) untracedRequest(send func() (reply, error)) (reply, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rp, err := send()
	runtime.ReadMemStats(&after)
	if err == nil {
		l.untraced.addDur(rp.wall)
		l.allocKB.add(float64(after.TotalAlloc-before.TotalAlloc) / 1024)
		l.gcPauseMS += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		l.gcQueries++
	}
	return rp, err
}

func (l *queryLayers) span(name string) float64 {
	if s := l.spans[name]; s != nil {
		return s.median()
	}
	return 0
}

// report prints the query-path layer metrics. Layers a workload does not
// exercise read 0.
func (l *queryLayers) report(res *result) {
	res.set("server.self_ms", "ms", l.serverSelf.median())
	res.set("server.response_kb", "KB", l.respKB.median())
	res.set("cache.lookup_ms", "ms", l.span("cache.lookup"))
	res.set("match.result_graph_ms", "ms", l.span("result_graph"))
	res.set("match.result_edges", "count", l.edges.median())
	res.set("rank.topk_ms", "ms", l.span("rank.topk"))
	res.set("rank.scored", "count", l.scored.median())
	res.set("eval.bounded_ms", "ms", l.span("eval.bounded"))
	res.set("eval.simulation_ms", "ms", l.span("eval.simulation"))
	res.set("eval.dual_ms", "ms", l.dual.median())
	res.set("eval.indexed_ms", "ms", l.span("eval.indexed"))
	res.set("eval.partitioned_ms", "ms", l.span("eval.partitioned"))
	res.set("eval.compressed_ms", "ms", l.span("eval.compressed"))
	ratio := 0.0
	if l.probes > 0 {
		ratio = l.fallbacks / l.probes
	}
	res.set("distindex.fallback_ratio", "ratio", ratio)
	res.set("partition.messages", "count", l.messages.median())
	res.set("engine.alloc_kb_per_query", "KB", l.allocKB.median())
	pause := 0.0
	if l.gcQueries > 0 {
		pause = l.gcPauseMS / float64(l.gcQueries)
	}
	res.set("runtime.gc_pause_ms", "ms", pause)
	res.set("trace.overhead_ms", "ms", l.traced.median()-l.untraced.median())
	res.set("trace.unattributed_pct", "%", l.unattrib.median())
}

// The per-layer times of a traced query must add up to its request time:
// server.self_ms is the request wall minus engine.query, so the stage spans
// under engine.query must cover it to within spanTolerance of its duration
// plus spanSlackUS (span times are whole microseconds). A run fails its
// checks when more than maxOverTolerance of its traced queries miss; a few
// may, when the scheduler or a GC pause lands between two spans.
const (
	spanTolerance    = 0.10
	spanSlackUS      = 100
	maxOverTolerance = 0.01
)

// checkTolerance fails the run when too many traced queries miss the
// tolerance.
func (l *queryLayers) checkTolerance(res *result) {
	if n := len(l.unattrib); n > 0 && float64(l.overTol) > maxOverTolerance*float64(n) {
		res.wrong("%d of %d traced queries: stage spans miss engine.query by more than %.0f%% + %dus",
			l.overTol, n, 100*spanTolerance, spanSlackUS)
	}
}

// runCold is the cold-search workload. Its traced run sends every query to
// a second, identically loaded stack untraced as well, so the tracing
// overhead compares the same queries.
func runCold(cfg config, res *result) error {
	checkPaper(res)
	p := phases{}
	env, setupS, err := setupQuery(p, nil)
	if err != nil {
		return err
	}
	defer env.st.close()
	heap := liveHeapMB()
	var twin *stack
	if cfg.trace {
		if twin, err = newStack(""); err != nil {
			return err
		}
		defer twin.close()
		if err := twin.eng.AddGraph(graphName, env.g.Clone()); err != nil {
			return err
		}
	}
	templates, refs := coldTemplates(env.m)
	r := rand.New(rand.NewSource(cfg.seed))
	layers := newQueryLayers()
	var lat samples
	hits0 := env.st.eng.CacheStats()
	for round := 0; lat.sum() < cfg.seconds*1000; round++ {
		order, prefix := coldOrder(r, round)
		for _, i := range order {
			q := templates[i]
			q.prefix = prefix
			if twin != nil {
				if _, err := layers.untracedRequest(func() (reply, error) {
					rp, _, _, err := twin.ask(graphName, &q, false)
					return rp, err
				}); err != nil {
					return err
				}
			}
			rp, resp, got, err := env.st.ask(graphName, &q, cfg.trace)
			if !res.op(err) {
				continue
			}
			lat.addDur(rp.wall)
			want := refs[i]
			if err := check(got, want); err != nil {
				res.wrong("cold query %q (dual %v): %v", q.dsl(), q.dual, err)
			}
			if resp.Source == "cache" {
				res.wrong("cold query %q answered from the cache", q.dsl())
			}
			if cfg.trace {
				layers.observe(rp, resp, want)
				if q.dual {
					if err := layers.timeDual(env.g, &q); err != nil {
						return err
					}
				}
			}
		}
	}
	hits := env.st.eng.CacheStats()
	if cfg.trace {
		layers.report(res)
		reportCache(res, hits0.Hits, hits.Hits, hits0.Misses, hits.Misses, env.st)
		reportSetup(res, p)
		layers.checkTolerance(res)
		return nil
	}
	reportQueries(res, lat, true)
	res.set("setup_s", "s", setupS)
	res.set("live_heap_mb", "MB", heap)
	return probeUpdates(cfg, res)
}

// reportQueries prints the query latency metrics of one workload.
func reportQueries(res *result, lat samples, withQPS bool) {
	res.set("query_p50_ms", "ms", lat.median())
	res.set("query_p90_ms", "ms", lat.quantile(0.9))
	res.set("query_qps", "1/s", float64(len(lat))/(lat.sum()/1000))
	fmt.Fprintf(logw, "queries: %d\n", len(lat))
}

// reportCache prints the cache layer metrics.
func reportCache(res *result, h0, h1, m0, m1 int, st *stack) {
	ratio := 0.0
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		ratio = float64(h1-h0) / float64(n)
	}
	res.set("cache.hit_ratio", "ratio", ratio)
	res.set("cache.resident_mb", "MB", float64(st.eng.CacheStats().Bytes)/(1<<20))
}

// setupPhases are the set-up layers every traced run reports.
var setupPhases = []string{"generator.graph_s", "engine.add_graph_s", "engine.register_s", "distindex.build_s",
	"partition.build_s", "compress.build_s", "cache.warm_s"}

func reportSetup(res *result, p phases) {
	for _, name := range setupPhases {
		v := 0.0
		if s := p[name]; s != nil {
			v = s.median()
		}
		res.set(name, "s", v)
	}
}

// runHot is the hot-serve workload.
func runHot(cfg config, res *result) error {
	checkPaper(res)
	hot := hotSet()
	cold := make([][]byte, len(hot)) // each query's first (cold) answer
	var coldAnswers []answer
	p := phases{}
	env, setupS, err := setupQuery(p, func(st *stack) error {
		coldAnswers = coldAnswers[:0]
		for i := range hot {
			rp, _, got, err := st.ask(graphName, &hot[i], false)
			if err != nil {
				return err
			}
			cold[i] = append([]byte(nil), answerBytes(rp.body)...)
			coldAnswers = append(coldAnswers, got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer env.st.close()
	for i := range hot {
		if err := check(coldAnswers[i], env.m.reference(&hot[i])); err != nil {
			res.wrong("hot query %q, cold answer: %v", hot[i].dsl(), err)
		}
	}
	heap := liveHeapMB()
	bodies := make([][]byte, len(hot))
	for i := range hot {
		b, err := json.Marshal(queryBody(&hot[i]))
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	r := rand.New(rand.NewSource(cfg.seed))
	layers := newQueryLayers()
	var lat samples
	hits0 := env.st.eng.CacheStats()
	for round := 0; lat.sum() < cfg.seconds*1000; round++ {
		traced := cfg.trace && round%2 == 1
		for _, i := range hotSequence(r) {
			var rp reply
			send := func() (reply, error) {
				var err error
				rp, err = env.st.do("POST", queryPath(graphName, traced), json.RawMessage(bodies[i]))
				return rp, err
			}
			var err error
			if cfg.trace && !traced {
				_, err = layers.untracedRequest(send)
			} else {
				_, err = send()
			}
			if !res.op(err) {
				continue
			}
			lat.addDur(rp.wall)
			if !bytes.Equal(answerBytes(rp.body), cold[i]) {
				res.wrong("hot query %q: answer differs from its cold answer", hot[i].dsl())
			}
			if traced {
				var resp api.QueryResponse
				if err := json.Unmarshal(rp.body, &resp); err != nil {
					return err
				}
				if resp.Source != "cache" {
					res.wrong("hot query %q served from %q, not the cache", hot[i].dsl(), resp.Source)
				}
				layers.observe(rp, &resp, answer{resultEdges: 0, scored: len(resp.Matches[hot[i].nodeName(hot[i].out)])})
			}
		}
	}
	hits := env.st.eng.CacheStats()
	if hits.Misses != hits0.Misses {
		res.wrong("hot-serve missed the cache %d times", hits.Misses-hits0.Misses)
	}
	if cfg.trace {
		layers.report(res)
		reportCache(res, hits0.Hits, hits.Hits, hits0.Misses, hits.Misses, env.st)
		reportSetup(res, p)
		layers.checkTolerance(res)
		return nil
	}
	reportQueries(res, lat, true)
	res.set("setup_s", "s", setupS)
	res.set("live_heap_mb", "MB", heap)
	return probeUpdates(cfg, res)
}

package main

// update-stream: a closed-loop client sending a seeded stream of update
// batches, node changes and selective reads to a graph that carries every
// derived structure the engine maintains, ending with a restart that
// recovers the run's own WAL.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/stats"
	"expfinder/internal/subscribe"
	"expfinder/internal/wal"
)

const (
	// updateNodes sizes the update-stream graph.
	updateNodes = 5000
	// poolSize is how many generated edges start out removed, waiting to
	// be re-inserted by the stream.
	poolSize = 256
	// recoveries is how many times the restart is timed, each on its own
	// copy of the run's WAL; recover_s is their median.
	recoveries = 9
	// probeRounds is the length of the probe that gives the query
	// workloads their update and recovery numbers: update-stream rounds
	// without the reads.
	probeRounds = 16
)

// streamRun is one set-up update-stream workload.
type streamRun struct {
	cfg     config
	res     *result
	nodes   int
	dir     string // WAL directory of the kept set-up
	st      *stack
	m       *model
	gen     *streamGen
	subs    []*subscribe.Subscription
	mirrors []relation
	sh      *shadow            // traced runs only
	added   int32              // the node added in the current cycle
	reads   map[string][]query // nil: the stream sends no reads
	cycles  int
	// Counted as the run goes.
	sinceCkpt int // mutation requests since the last checkpoint
	upd       samples
	readLat   samples
	ops       int
	updMS     float64
	roundRate samples // per round: edge ops per second spent in update requests
	layers    *queryLayers
	plans     map[string]int
	setupS    float64
	heap      float64
	p         phases
}

// removePool takes the stream's initially removed edges out of g.
func removePool(g *graph.Graph, pool [][2]int32) error {
	for _, e := range pool {
		if err := g.RemoveEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			return err
		}
	}
	return nil
}

// setup builds the stack the stream runs against, setups times.
func (s *streamRun) setup() error {
	var poolGraph *graph.Graph
	type built struct {
		st  *stack
		dir string
	}
	b, secs, err := timeSetups(func(i int) (built, float64, error) {
		total := 0.0
		g, err := generate(s.p, &total, s.nodes)
		if err != nil {
			return built{}, 0, err
		}
		if i == 0 {
			s.m = modelOf(g)
			s.gen = newStreamGen(s.cfg.seed, s.m, poolSize)
		}
		if err := removePool(g, s.gen.pool); err != nil {
			return built{}, 0, err
		}
		poolGraph = g.Clone()
		dir := filepath.Join(s.cfg.work, fmt.Sprintf("wal-%d-%d", s.nodes, i))
		st, err := newStack(dir)
		if err != nil {
			return built{}, 0, err
		}
		steps := []struct {
			phase string
			fn    func() error
		}{
			{"engine.add_graph_s", func() error { return st.eng.AddGraph(graphName, g) }},
			{"engine.register_s", func() error { return s.registerStanding(st) }},
			{"distindex.build_s", func() error { return s.post(st, "/index", api.IndexRequest{Landmarks: indexLandmarks}) }},
			{"partition.build_s", func() error {
				return s.post(st, "/partitions", api.PartitionRequest{Parts: 4, Strategy: "greedy"})
			}},
			{"compress.build_s", func() error {
				return s.post(st, "/compress", api.CompressRequest{Scheme: "bisimulation", View: []string{"experience"}})
			}},
		}
		for _, step := range steps {
			if err := s.p.time(&total, step.phase, step.fn); err != nil {
				st.close()
				return built{}, 0, fmt.Errorf("%s: %w", step.phase, err)
			}
		}
		return built{st, dir}, total, nil
	}, func(b built) { b.st.close() })
	if err != nil {
		return err
	}
	s.st, s.dir, s.setupS = b.st, b.dir, secs
	s.heap = liveHeapMB()
	if s.cfg.trace {
		if s.sh, err = newShadow(poolGraph, filepath.Join(s.cfg.work, fmt.Sprintf("shadow-%d", s.nodes))); err != nil {
			return err
		}
	}
	return nil
}

func (s *streamRun) post(st *stack, rest string, body any) error {
	_, err := st.do("POST", graphPath(graphName, rest), body)
	return err
}

// registerStanding registers the standing queries: the first half for
// incremental maintenance, the rest as K=0 subscriptions the client drains.
func (s *streamRun) registerStanding(st *stack) error {
	s.subs, s.mirrors = nil, nil
	for i, q := range standing() {
		q := q
		if i < 2 {
			if err := s.post(st, "/register", queryBody(&q)); err != nil {
				return err
			}
			continue
		}
		rp, err := st.do("POST", graphPath(graphName, "/subscriptions"), api.SubscribeRequest{DSL: q.dsl()})
		if err != nil {
			return err
		}
		var sr api.SubscribeResponse
		if err := json.Unmarshal(rp.body, &sr); err != nil {
			return err
		}
		sub, err := st.eng.Subscription(sr.ID)
		if err != nil {
			return err
		}
		s.subs = append(s.subs, sub)
		s.mirrors = append(s.mirrors, make(relation, len(q.nodes)))
	}
	s.drain()
	return nil
}

// drain folds every pending subscription event into the client's mirrors.
func (s *streamRun) drain() {
	for i, sub := range s.subs {
		for ev, ok := sub.Poll(); ok; ev, ok = sub.Poll() {
			mirror := s.mirrors[i]
			if ev.Kind == subscribe.Snapshot {
				for u := range mirror {
					mirror[u] = nil
				}
				for _, p := range ev.Pairs {
					mirror[p.PNode] = append(mirror[p.PNode], int32(p.Node))
				}
				continue
			}
			for _, p := range ev.Removed {
				mirror[p.PNode] = removeID(mirror[p.PNode], int32(p.Node))
			}
			for _, p := range ev.Added {
				mirror[p.PNode] = append(mirror[p.PNode], int32(p.Node))
			}
		}
	}
}

func removeID(list []int32, x int32) []int32 {
	for i, y := range list {
		if y == x {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// mutate sends one mutation request and does the client's bookkeeping.
func (s *streamRun) mutate(method, path string, body any) (reply, bool) {
	rp, err := s.st.do(method, path, body)
	if !s.res.op(err) {
		return rp, false
	}
	s.sinceCkpt++
	s.drain()
	return rp, true
}

// batch sends one edge batch through the update route.
func (s *streamRun) batch(ops []edgeOp) {
	req := api.UpdateRequest{Ops: make([]api.UpdateOp, len(ops))}
	for i, op := range ops {
		kind := "delete"
		if op.insert {
			kind = "insert"
		}
		req.Ops[i] = api.UpdateOp{Op: kind, From: int64(op.from), To: int64(op.to)}
	}
	rp, ok := s.mutate("POST", graphPath(graphName, "/updates"), req)
	if !ok {
		return
	}
	s.upd.addDur(rp.wall)
	s.updMS += ms(rp.wall)
	s.ops += len(ops)
	if s.sh != nil {
		if err := s.sh.batch(ops, rp.wall); err != nil {
			s.res.wrong("shadow replay: %v", err)
		}
	}
}

// read sends one selective read and checks it against the reference on
// the graph as it stands.
func (s *streamRun) read(shape string, traced bool) {
	q := s.reads[shape][s.cycles%readTemplates]
	var rp reply
	var resp *api.QueryResponse
	var got answer
	send := func() (reply, error) {
		var err error
		rp, resp, got, err = s.st.ask(graphName, &q, traced)
		return rp, err
	}
	var err error
	if s.cfg.trace && !traced {
		_, err = s.layers.untracedRequest(send)
	} else {
		_, err = send()
	}
	if !s.res.op(err) {
		return
	}
	s.readLat.addDur(rp.wall)
	want := s.m.reference(&q)
	if err := check(got, want); err != nil {
		s.res.wrong("%s read %q: %v", shape, q.dsl(), err)
	}
	s.plans[resp.Source]++
	if resp.Source != shape {
		s.res.wrong("%s read %q served by %q", shape, q.dsl(), resp.Source)
	}
	if traced {
		s.layers.observe(rp, resp, want)
	}
}

// cycle runs one cycle of the stream.
func (s *streamRun) cycle(traced bool) {
	for _, step := range updateCycle {
		switch step.kind {
		case opBatch:
			s.batch(s.gen.batch())
		case opRead:
			if s.reads != nil {
				s.read(step.shape, traced)
			}
		case opRebuild:
			if err := s.post(s.st, "/index", api.IndexRequest{Landmarks: indexLandmarks}); !s.res.op(err) {
				continue
			}
			if s.sh != nil {
				s.sh.rebuildIndex()
			}
		case opAddNode:
			p := s.gen.newPerson(len(s.m.nodes))
			want := int32(len(s.m.nodes))
			body := api.AddNodeRequest{Label: p.label, Attrs: map[string]graph.Value{
				"name": graph.String(p.name), "specialty": graph.String(p.spec), "experience": graph.Int(p.exp)}}
			rp, ok := s.mutate("POST", graphPath(graphName, "/nodes"), body)
			if !ok {
				continue
			}
			var ar api.AddNodeResponse
			if err := json.Unmarshal(rp.body, &ar); err != nil || int32(ar.ID) != want {
				s.res.wrong("added node got id %d, want %d (%v)", ar.ID, want, err)
			}
			s.added = s.m.addNode(p)
			if s.sh != nil {
				s.sh.addNode(p)
			}
		case opWire:
			s.batch(s.gen.wire(s.added))
		case opSetAttr:
			v, exp := s.gen.randomOrig(), int64(s.gen.r.Intn(15))
			if _, ok := s.mutate("POST", nodePath(graphName, v, "/attrs"), map[string]graph.Value{"experience": graph.Int(exp)}); !ok {
				continue
			}
			s.m.nodes[v].exp = exp
			if s.sh != nil {
				s.sh.setExp(v, exp)
			}
		case opRemoveNode:
			if _, ok := s.mutate("DELETE", nodePath(graphName, s.added, ""), nil); !ok {
				continue
			}
			s.m.removeNode(s.added)
			if s.sh != nil {
				s.sh.removeNode(s.added)
			}
		}
	}
}

// checkStanding compares the registered queries' answers and the
// subscription mirrors with the reference.
func (s *streamRun) checkStanding() {
	for i, q := range standing() {
		q := q
		want := s.m.reference(&q)
		if i < 2 {
			_, _, got, err := s.st.ask(graphName, &q, false)
			if err != nil {
				s.res.wrong("registered query %d: %v", i, err)
				continue
			}
			if err := check(got, want); err != nil {
				s.res.wrong("registered query %d: %v", i, err)
			}
			continue
		}
		mirror := s.mirrors[i-2]
		got := make(relation, len(mirror))
		for u := range mirror {
			got[u] = append([]int32{}, mirror[u]...)
			sortIDs(got[u])
		}
		if err := sameRelation(got, want.rel); err != nil {
			s.res.wrong("subscription %d mirror: %v", i-2, err)
		}
	}
}

// stream runs the workload: whole rounds until the measured request time
// reaches cfg.seconds, or exactly rounds rounds when rounds > 0.
func (s *streamRun) stream(rounds int) {
	measured := func() float64 { return s.updMS + s.readLat.sum() }
	for round := 0; ; round++ {
		if rounds > 0 && round == rounds || rounds == 0 && measured() >= s.cfg.seconds*1000 {
			return
		}
		traced := s.cfg.trace && round%2 == 1
		ops0, ms0 := s.ops, s.updMS
		for c := 0; c < cyclesPerRound; c++ {
			if c == checkpointCycle {
				if _, err := s.st.do("POST", api.Prefix+"/admin/persistence/checkpoint", api.CheckpointRequest{Graph: graphName}); s.res.op(err) {
					s.sinceCkpt = 0
				}
			}
			s.cycle(traced)
			s.cycles++
		}
		s.roundRate.add(float64(s.ops-ops0) / ((s.updMS - ms0) / 1000))
		s.checkStanding()
	}
}

// restart checks the live state, closes the engine and recovers copies of
// its WAL in fresh engines.
func (s *streamRun) restart() (samples, error) {
	var live []byte
	var liveVersion uint64
	err := s.st.eng.WithGraph(graphName, func(g *graph.Graph) error {
		liveVersion = g.Version()
		if err := s.m.sameAs(g); err != nil {
			s.res.wrong("final graph differs from the model of the applied stream: %v", err)
		}
		checkStats(s.res, "live", s.st, g)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if live, err = s.standingAnswers(s.st); err != nil {
		return nil, err
	}
	if err := s.st.close(); err != nil {
		return nil, fmt.Errorf("close engine: %w", err)
	}
	var rec samples
	for i := 0; i < recoveries; i++ {
		dir := fmt.Sprintf("%s-r%d", s.dir, i)
		if err := copyDir(s.dir, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		st, err := newStack(dir)
		if err != nil {
			return nil, err
		}
		sum, err := st.eng.Recover()
		rec.add(time.Since(start).Seconds())
		if err == nil && (len(sum.Graphs) != 1 || sum.Graphs[0].Err != "") {
			err = fmt.Errorf("recovery summary %+v", sum)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("recover: %w", err)
		}
		if i == 0 {
			s.checkRecovered(st, sum.Graphs[0].Records, liveVersion, live)
		}
		if err := st.close(); err != nil {
			return nil, err
		}
		if s.cfg.trace && i == 0 {
			if err := s.traceRecovery(dir + "-replay"); err != nil {
				return nil, err
			}
		}
	}
	return rec, nil
}

// checkRecovered compares a recovered engine with the live one.
func (s *streamRun) checkRecovered(st *stack, records int, version uint64, live []byte) {
	if records != s.sinceCkpt {
		s.res.wrong("recovery replayed %d records, want %d", records, s.sinceCkpt)
	}
	if want := (cyclesPerRound - checkpointCycle) * mutationsPerCycle(); s.sinceCkpt != want {
		s.res.wrong("%d mutation requests since the last checkpoint, want %d", s.sinceCkpt, want)
	}
	_ = st.eng.WithGraph(graphName, func(g *graph.Graph) error {
		if g.Version() != version {
			s.res.wrong("recovered version %d, live %d", g.Version(), version)
		}
		if err := s.m.sameAs(g); err != nil {
			s.res.wrong("recovered graph: %v", err)
		}
		checkStats(s.res, "recovered", st, g)
		return nil
	})
	// A restart keeps the WAL but not the standing queries: register them
	// again, then their answers must be the live ones.
	if err := s.registerStanding(st); err != nil {
		s.res.wrong("re-register standing queries: %v", err)
		return
	}
	got, err := s.standingAnswers(st)
	if err != nil {
		s.res.wrong("recovered answers: %v", err)
	} else if string(got) != string(live) {
		s.res.wrong("recovered engine answers the standing queries differently")
	}
}

func mutationsPerCycle() int {
	n := 0
	for _, step := range updateCycle {
		switch step.kind {
		case opBatch, opAddNode, opWire, opSetAttr, opRemoveNode:
			n++
		}
	}
	return n
}

// standingAnswers is the concatenated answer bytes of the standing queries.
func (s *streamRun) standingAnswers(st *stack) ([]byte, error) {
	var out []byte
	for _, q := range standing() {
		q := q
		rp, err := st.do("POST", queryPath(graphName, false), queryBody(&q))
		if err != nil {
			return nil, err
		}
		out = append(out, answerBytes(rp.body)...)
	}
	return out, nil
}

// checkStats compares the engine's maintained statistics with a recount.
func checkStats(res *result, what string, st *stack, g *graph.Graph) {
	snap, err := st.eng.GraphStatistics(graphName)
	if err != nil {
		res.wrong("%s statistics: %v", what, err)
		return
	}
	if !snap.Equal(stats.Compute(g)) {
		res.wrong("%s statistics differ from a recount", what)
	}
	if n, _ := st.eng.StatsRebuilds(graphName); n != 1 {
		res.wrong("%s statistics were rebuilt %d times, want 1", what, n)
	}
}

// traceRecovery times the two halves of a restart through their own
// layers: the WAL replay and the distance-index re-arm.
func (s *streamRun) traceRecovery(dir string) error {
	if err := copyDir(s.dir, dir); err != nil {
		return err
	}
	m, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval, CheckpointInterval: 24 * time.Hour})
	if err != nil {
		return err
	}
	defer m.Close()
	start := time.Now()
	rec, err := m.Recover(graphName)
	if err != nil {
		return err
	}
	s.res.set("wal.replay_s", "s", time.Since(start).Seconds())
	s.res.set("wal.replayed_records", "count", float64(rec.Records))
	start = time.Now()
	distindex.Build(rec.Graph, distindex.Options{Landmarks: indexLandmarks})
	s.res.set("distindex.rearm_s", "s", time.Since(start).Seconds())
	return nil
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// runStream sets up and runs an update stream on a graph of the given size,
// with or without its reads.
func runStream(cfg config, res *result, nodes, rounds int, withReads bool) (*streamRun, samples, error) {
	s := &streamRun{cfg: cfg, res: res, nodes: nodes, layers: newQueryLayers(), plans: map[string]int{}, p: phases{}}
	if withReads {
		s.reads = reads()
	}
	if err := s.setup(); err != nil {
		return nil, nil, err
	}
	hits0 := s.st.eng.CacheStats()
	s.stream(rounds)
	if cfg.trace {
		hits := s.st.eng.CacheStats()
		reportCache(res, hits0.Hits, hits.Hits, hits0.Misses, hits.Misses, s.st)
		ix, err := s.st.eng.IndexStats(graphName)
		if err != nil {
			return nil, nil, err
		}
		res.set("distindex.mb", "MB", float64(ix.Bytes)/(1<<20))
	}
	if s.sh != nil {
		if err := s.sh.close(); err != nil {
			return nil, nil, err
		}
	}
	rec, err := s.restart()
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(logw, "update-stream(%d nodes): %d batches, %d ops, %d reads by source %v\n", nodes, len(s.upd), s.ops, len(s.readLat), s.plans)
	return s, rec, nil
}

// reportUpdates prints the update-path end-to-end metrics.
func reportUpdates(res *result, s *streamRun, rec samples) {
	res.set("update_p50_ms", "ms", s.upd.median())
	res.set("update_p90_ms", "ms", s.upd.quantile(0.9))
	res.set("update_ops_s", "1/s", s.roundRate.median())
	res.set("recover_s", "s", rec.median())
}

// runUpdate is the update-stream workload.
func runUpdate(cfg config, res *result) error {
	s, rec, err := runStream(cfg, res, updateNodes, 0, true)
	if err != nil {
		return err
	}
	if cfg.trace {
		s.layers.report(res)
		s.sh.report(res, s.p)
		reportSetup(res, s.p)
		s.layers.checkTolerance(res)
		return nil
	}
	reportQueries(res, s.readLat, true)
	reportUpdates(res, s, rec)
	res.set("setup_s", "s", s.setupS)
	res.set("live_heap_mb", "MB", s.heap)
	return nil
}

// probeUpdates gives a query workload its update and recovery numbers from
// a fixed-length update stream without reads (see README).
func probeUpdates(cfg config, res *result) error {
	s, rec, err := runStream(cfg, res, updateNodes, probeRounds, false)
	if err != nil {
		return err
	}
	reportUpdates(res, s, rec)
	return nil
}

package main

// The traced update-stream run replays every request of the stream, after
// the server has applied it, on a shadow copy of the graph and of each
// derived structure, in the engine's order (graph apply -> registered
// matchers -> compressed graph -> distance index -> partitioning ->
// statistics -> subscriptions -> WAL), timing each layer through its own
// public functions. The shadow starts from the same graph and sees the same
// requests, so every layer does the same work it did inside the engine.

import (
	"time"

	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/stats"
	"expfinder/internal/subscribe"
	"expfinder/internal/wal"
)

type shadow struct {
	g        *graph.Graph
	matchers []*incremental.Matcher
	hub      *subscribe.Hub
	subs     []*subscribe.Subscription
	st       *stats.Graph
	idx      *distindex.Index
	part     *partition.Partitioning
	comp     *compress.Compressed
	wal      *wal.Manager
	layers   map[string]*samples // per-batch layer times, ms
	selfMS   samples             // update request wall minus the layers, ms
	walBytes samples             // WAL bytes per applied op
}

// shadowLayers are the mutation-path layers, in the engine's order.
var shadowLayers = []string{"graph.apply_ms", "incremental.sync_ms", "compress.sync_ms",
	"distindex.sync_ms", "partition.sync_ms", "stats.sync_ms", "subscribe.fanout_ms", "wal.append_ms"}

func newShadow(g *graph.Graph, dir string) (*shadow, error) {
	sh := &shadow{g: g, hub: subscribe.NewHub(), st: stats.NewGraph(g), layers: map[string]*samples{}}
	for i, q := range standing() {
		p, err := pattern.Parse(q.dsl())
		if err != nil {
			return nil, err
		}
		if i < 2 {
			sh.matchers = append(sh.matchers, incremental.NewMatcher(g, p))
			continue
		}
		sub, err := sh.hub.Subscribe(graphName, g, p, subscribe.Options{})
		if err != nil {
			return nil, err
		}
		sh.subs = append(sh.subs, sub)
	}
	sh.rebuildIndex()
	var err error
	if sh.part, err = partition.Partition(g, partition.Options{Parts: 4, Strategy: partition.StrategyGreedy}); err != nil {
		return nil, err
	}
	sh.comp = compress.CompressWithView(g, compress.Bisimulation, compress.View{"experience"})
	if sh.wal, err = wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval, CheckpointInterval: 24 * time.Hour}); err != nil {
		return nil, err
	}
	if err := sh.wal.Create(graphName, g); err != nil {
		return nil, err
	}
	for _, name := range shadowLayers {
		sh.layers[name] = &samples{}
	}
	sh.drain()
	return sh, nil
}

func (sh *shadow) close() error { return sh.wal.Close() }

func (sh *shadow) rebuildIndex() {
	sh.idx = distindex.Build(sh.g, distindex.Options{Landmarks: indexLandmarks})
}

func (sh *shadow) drain() {
	for _, sub := range sh.subs {
		for _, ok := sub.Poll(); ok; _, ok = sub.Poll() {
		}
	}
}

// step times fn as one layer of the current batch.
func (sh *shadow) step(layer string, total *time.Duration, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	*total += d
	sh.layers[layer].addDur(d)
	return err
}

// batch replays one edge batch that took wall inside the server.
func (sh *shadow) batch(ops []edgeOp, wall time.Duration) error {
	iops := make([]incremental.Update, len(ops))
	cops := make([]compress.Update, len(ops))
	dops := make([]distindex.Update, len(ops))
	pops := make([]partition.Update, len(ops))
	sops := make([]stats.Update, len(ops))
	wops := make([]wal.Update, len(ops))
	for i, op := range ops {
		from, to := graph.NodeID(op.from), graph.NodeID(op.to)
		iops[i] = incremental.Update{Insert: op.insert, From: from, To: to}
		cops[i] = compress.Update{Insert: op.insert, From: from, To: to}
		dops[i] = distindex.Update{Insert: op.insert, From: from, To: to}
		pops[i] = partition.Update{Insert: op.insert, From: from, To: to}
		sops[i] = stats.Update{Insert: op.insert, From: from, To: to}
		wops[i] = wal.Update{Insert: op.insert, From: from, To: to}
	}
	var total time.Duration
	steps := []struct {
		layer string
		fn    func() error
	}{
		{"graph.apply_ms", func() error {
			for _, op := range ops {
				var err error
				if op.insert {
					err = sh.g.AddEdge(graph.NodeID(op.from), graph.NodeID(op.to))
				} else {
					err = sh.g.RemoveEdge(graph.NodeID(op.from), graph.NodeID(op.to))
				}
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"incremental.sync_ms", func() error {
			for _, m := range sh.matchers {
				if _, _, err := m.Sync(iops); err != nil {
					return err
				}
			}
			return nil
		}},
		{"compress.sync_ms", func() error { return sh.comp.Sync(cops) }},
		{"distindex.sync_ms", func() error { sh.idx.Sync(dops); return nil }},
		{"partition.sync_ms", func() error { sh.part.Sync(pops); return nil }},
		{"stats.sync_ms", func() error { sh.st.Sync(sh.g, sops); return nil }},
		{"subscribe.fanout_ms", func() error { sh.hub.HandleUpdates(graphName, sh.g, iops); return nil }},
	}
	for _, s := range steps {
		if err := sh.step(s.layer, &total, s.fn); err != nil {
			return err
		}
	}
	before := sh.walSinceCheckpoint()
	if err := sh.step("wal.append_ms", &total, func() error {
		return sh.wal.LogUpdates(graphName, wops, sh.g.Version())
	}); err != nil {
		return err
	}
	sh.walBytes.add(float64(sh.walSinceCheckpoint()-before) / float64(len(ops)))
	sh.selfMS.add(ms(wall) - ms(total))
	sh.drain()
	return nil
}

func (sh *shadow) walSinceCheckpoint() int64 {
	for _, g := range sh.wal.Stats().Graphs {
		if g.Name == graphName {
			return g.BytesSinceCheckpoint
		}
	}
	return 0
}

// addNode, setExp and removeNode keep the shadow in step with the node
// requests of the stream, following the engine's sync order; they are not
// timed.
func (sh *shadow) addNode(p person) {
	attrs := graph.Attrs{"name": graph.String(p.name), "specialty": graph.String(p.spec), "experience": graph.Int(p.exp)}
	id := sh.g.AddNode(p.label, attrs)
	for _, m := range sh.matchers {
		m.SyncNodeAdded(id)
	}
	_ = sh.comp.SyncNodeAdded(id)
	sh.idx.SyncNodeAdded(id)
	sh.part.SyncNodeAdded(id)
	sh.st.SyncNodeAdded(sh.g, id)
	sh.hub.HandleNodeAdded(graphName, sh.g, id)
	_ = sh.wal.LogAddNode(graphName, p.label, attrs, sh.g.Version())
	sh.drain()
}

func (sh *shadow) setExp(v int32, exp int64) {
	id := graph.NodeID(v)
	_ = sh.g.SetAttr(id, "experience", graph.Int(exp))
	for _, m := range sh.matchers {
		_, _, _ = m.SyncAttrChanged(id)
	}
	_ = sh.comp.SyncAttrChanged(id)
	sh.idx.SyncAttrChanged(id)
	sh.part.SyncAttrChanged(id)
	sh.st.SyncAttrChanged(sh.g)
	sh.hub.Invalidate(graphName)
	sh.hub.Flush(graphName, sh.g)
	_ = sh.wal.LogSetAttr(graphName, id, "experience", graph.Int(exp), sh.g.Version())
	sh.drain()
}

func (sh *shadow) removeNode(v int32) {
	id := graph.NodeID(v)
	sh.idx.Invalidate()
	sh.hub.Invalidate(graphName)
	var ops []incremental.Update
	for _, w := range sh.g.Out(id) {
		ops = append(ops, incremental.Delete(id, w))
	}
	for _, u := range sh.g.In(id) {
		if u != id {
			ops = append(ops, incremental.Delete(u, id))
		}
	}
	cops := make([]compress.Update, len(ops))
	pops := make([]partition.Update, len(ops))
	sops := make([]stats.Update, len(ops))
	for i, op := range ops {
		_ = sh.g.RemoveEdge(op.From, op.To)
		cops[i] = compress.Update{From: op.From, To: op.To}
		pops[i] = partition.Update{From: op.From, To: op.To}
		sops[i] = stats.Update{From: op.From, To: op.To}
	}
	for _, m := range sh.matchers {
		_, _, _ = m.Sync(ops)
	}
	_ = sh.comp.Sync(cops)
	sh.part.Sync(pops)
	sh.st.Sync(sh.g, sops)
	for _, m := range sh.matchers {
		m.SyncNodeRemoving(id)
	}
	_ = sh.comp.SyncNodeRemoving(id)
	_ = sh.g.RemoveNode(id)
	for _, m := range sh.matchers {
		m.RefreshVersion()
	}
	sh.comp.RefreshVersion()
	sh.part.SyncNodeRemoved(id)
	sh.st.SyncNodeRemoved(sh.g, id)
	sh.hub.Flush(graphName, sh.g)
	_ = sh.wal.LogRemoveNode(graphName, id, sh.g.Version())
	sh.drain()
}

// report prints the mutation-path layer metrics: per-batch medians.
func (sh *shadow) report(res *result, p phases) {
	for _, name := range shadowLayers {
		res.set(name, "ms", sh.layers[name].median())
	}
	res.set("wal.bytes_per_op", "B", sh.walBytes.median())
	res.set("server.update_self_ms", "ms", sh.selfMS.median())
}

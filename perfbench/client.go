package main

// The closed-loop client. It drives one in-process serving stack — the
// engine behind the server's full middleware chain, configured like
// expfinder-server's defaults — by calling the server's http.Handler
// directly: each request pays routing, middleware, decode, the engine,
// render and JSON encoding, but no socket, so the numbers are about the
// program rather than the loopback device.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/engine"
	"expfinder/internal/server"
	"expfinder/internal/wal"
)

// stack is one serving stack: an engine and the server in front of it.
type stack struct {
	eng *engine.Engine
	srv *server.Server
}

// newStack builds the stack with expfinder-server's default flags. With a
// non-empty dir the engine persists to a WAL there under the default
// interval fsync; the background checkpointer's period is set far beyond
// any run, so checkpoints happen only where the workload asks for them.
func newStack(dir string) (*stack, error) {
	opts := engine.Options{CacheSize: 256, CacheBytes: 64 << 20}
	if dir != "" {
		m, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval, CheckpointInterval: 24 * time.Hour})
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		opts.Persistence = m
	}
	eng := engine.New(opts)
	return &stack{eng: eng, srv: server.New(eng, server.Config{RequestTimeout: 30 * time.Second})}, nil
}

// close stops the engine; with persistence it flushes and closes the WAL.
func (s *stack) close() error { return s.eng.Close() }

// reply is one response as the client saw it.
type reply struct {
	status int
	body   []byte
	wall   time.Duration
}

// do sends one request and times it from the handler call to its return.
func (s *stack) do(method, path string, body any) (reply, error) {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return reply{}, err
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	start := time.Now()
	s.srv.ServeHTTP(w, req)
	rp := reply{status: w.Code, body: w.Body.Bytes(), wall: time.Since(start)}
	if rp.status/100 != 2 {
		return rp, fmt.Errorf("%s %s: status %d: %s", method, path, rp.status, bytes.TrimSpace(rp.body))
	}
	return rp, nil
}

// queryPath is the query route of graph name; traced asks for the inline
// span tree.
func queryPath(name string, traced bool) string {
	p := api.Prefix + "/graphs/" + name + "/query"
	if traced {
		p += "?trace=1"
	}
	return p
}

func queryBody(q *query) api.QueryRequest {
	req := api.QueryRequest{DSL: q.dsl(), K: q.k}
	if q.dual {
		req.Semantics = "dual"
	}
	return req
}

// ask sends q to graph name and decodes the answer.
func (s *stack) ask(name string, q *query, traced bool) (reply, *api.QueryResponse, answer, error) {
	rp, err := s.do("POST", queryPath(name, traced), queryBody(q))
	if err != nil {
		return rp, nil, answer{}, err
	}
	var resp api.QueryResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return rp, nil, answer{}, fmt.Errorf("decode query response: %w", err)
	}
	return rp, &resp, answerOf(q, &resp), nil
}

// answerOf converts a wire response into the reference's answer form.
func answerOf(q *query, resp *api.QueryResponse) answer {
	a := answer{rel: make(relation, len(q.nodes))}
	for u := range q.nodes {
		ids := resp.Matches[q.nodeName(u)]
		a.rel[u] = make([]int32, len(ids))
		for i, id := range ids {
			a.rel[u][i] = int32(id)
		}
		sort.Slice(a.rel[u], func(i, j int) bool { return a.rel[u][i] < a.rel[u][j] })
	}
	for _, t := range resp.TopK {
		a.top = append(a.top, rankEntry{node: int32(t.Node), rank: t.Rank, connected: t.Connected})
	}
	return a
}

// answerBytes returns the part of a query response from its matches up to
// the trace: everything but plan, source, elapsed_us and the trace, which
// sit outside it in the encoding (api.QueryResponse field order). Two
// answers to the same query must agree on it byte for byte.
func answerBytes(body []byte) []byte {
	i := bytes.Index(body, []byte(`"matches":`))
	if i < 0 {
		return nil
	}
	body = body[i:]
	if j := bytes.Index(body, []byte(`,"trace":`)); j >= 0 {
		return body[:j]
	}
	return bytes.TrimSuffix(bytes.TrimSpace(body), []byte("}"))
}

func graphPath(name, rest string) string { return api.Prefix + "/graphs/" + name + rest }

func nodePath(name string, id int32, rest string) string {
	return graphPath(name, "/nodes/"+strconv.Itoa(int(id))+rest)
}

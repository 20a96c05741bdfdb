// Command perfbench is ExpFinder's benchmark. It runs one named workload
// against an in-process serving stack with a seed, checks every answer
// against an independent reference, and prints its metrics as one JSON
// line:
//
//	bash perfbench/run.sh --workload cold-search --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload traced and prints the per-layer metrics. --steady N runs the
// workload N times with seeds 1..N and prints each metric's median,
// quartiles and spread against its bound in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for WALs, removed at exit
}

// logw receives diagnostics; stdout carries only the result line.
var logw io.Writer = os.Stderr

var workloads = map[string]func(config, *result) error{
	"cold-search":   runCold,
	"hot-serve":     runHot,
	"update-stream": runUpdate,
}

func main() {
	var cfg config
	var traceFlag, steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-search | hot-serve | update-stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured request time per run, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times (seeds 1..N) and print the steadiness report")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run := workloads[cfg.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if steady > 0 {
		if err := steadiness(cfg, traceFlag, steady); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	res, err := runOnce(cfg, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOnce runs one workload in a fresh scratch directory under the
// benchmark's build directory, and removes it afterwards.
func runOnce(cfg config, run func(config, *result) error) (*result, error) {
	base := os.Getenv("PERFBENCH_WORK")
	if base == "" {
		return nil, errors.New("PERFBENCH_WORK is not set (run through run.sh)")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	res := newResult()
	if err := run(cfg, res); err != nil {
		return nil, err
	}
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
		for _, m := range want {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.set(m.Name, m.Unit, 0)
			}
		}
	}
	listed := map[string]bool{}
	for _, w := range want {
		listed[w.Name] = true
		if m, ok := res.Metrics[w.Name]; !ok || m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s missing or not in %s", w.Name, w.Unit)
		}
	}
	for name := range res.Metrics {
		if !listed[name] {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return res, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metrics
// a run must print (end-to-end untraced, per-layer traced) and the bounds
// the steadiness report judges against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec() (*benchSpec, error) {
	path, err := benchmarkFile()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// benchmarkFile finds BENCHMARK.json in the working directory or above.
func benchmarkFile() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found")
		}
		dir = parent
	}
}

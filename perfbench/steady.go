package main

// The steadiness report: run one workload repeatedly, each time with
// another seed, and print each metric's median, quartiles and spread
// (interquartile range over median) against its bound in BENCHMARK.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles is Python's statistics.quantiles(values, n=4) (the exclusive
// method), the definition the spread is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func steadiness(cfg config, traceFlag, runs int) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	attempted, failed := 0, 0
	for seed := 1; seed <= runs; seed++ {
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "--trace", strconv.Itoa(traceFlag))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs not correct", seed)
		}
		attempted += res.Attempted
		failed += res.Failed
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "seed %d done\n", seed)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, %d runs (seeds 1..%d), %.0f s each, trace %d: %d operations, %d failed\n",
		cfg.workload, runs, runs, cfg.seconds, traceFlag, attempted, failed)
	fmt.Printf("%-28s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		verdict, bound := "", ""
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.2f", b)
			switch {
			case name == "setup_s":
				verdict = "not judged"
			case spread < b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "TOO WIDE"
			}
		}
		fmt.Printf("%-28s %12.4f %12.4f %12.4f %7.1f%% %6s  %s\n", name, q1, med, q3, 100*spread, bound, verdict)
	}
	return nil
}

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// wrong records a failed correctness check; the run goes on so every check
// is reported, and prints correct=false.
func (r *result) wrong(format string, args ...any) {
	if r.Correct {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
	r.Correct = false
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// op counts one attempted operation and whether it failed.
func (r *result) op(err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintln(os.Stderr, "operation failed:", err)
		return false
	}
	return true
}

// samples is a list of measurements in milliseconds (or any unit).
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the linear-interpolation quantile (numpy's default); 0 for no
// samples.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	x := p * float64(len(c)-1)
	lo := int(math.Floor(x))
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (x-float64(lo))*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// liveHeapMB is the heap in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setups is how many times a run sets its workload up; setup_s is their
// median, so one slow set-up does not move it.
const setups = 5

// timeSetups runs build setups times, keeps the last result, discards the
// others, and reports the median of the set-up times build measured, in
// seconds.
func timeSetups[T any](build func(i int) (T, float64, error), discard func(T)) (T, float64, error) {
	var s samples
	var last T
	for i := 0; i < setups; i++ {
		v, secs, err := build(i)
		if err != nil {
			return last, 0, err
		}
		s.add(secs)
		if i < setups-1 {
			discard(v)
		}
		last = v
	}
	return last, s.median(), nil
}

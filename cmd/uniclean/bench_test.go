package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRatioGuardsZeroDenominator pins the division guard: a zero denominator
// — a zero-duration timing on a coarse clock, or an empty visit counter —
// must yield 0, never +Inf or NaN.
func TestRatioGuardsZeroDenominator(t *testing.T) {
	cases := []struct {
		num, den, want float64
	}{
		{10, 2, 5},
		{10, 0, 0},
		{0, 0, 0},
		{0, 7, 0},
	}
	for _, c := range cases {
		got := ratio(c.num, c.den)
		if got != c.want || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("ratio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
}

// TestBenchReportMarshalsWithZeroDenominators is the regression test for the
// -bench crash: the derived ratios divide by measured values that can
// legitimately be zero, and the resulting +Inf/NaN used to make
// json.Marshal of BENCH_<sha>.json fail with an UnsupportedValueError,
// killing the whole run after the benchmark had already completed.
func TestBenchReportMarshalsWithZeroDenominators(t *testing.T) {
	reports := []benchReport{
		{},                     // everything zero: the coarse-clock worst case
		{IncrementalNs: 12345}, // parallel timed at 0
		{ParallelNs: 12345},    // incremental timed at 0
		{IncrementalNs: 2, ParallelNs: 1, IncrementalVisits: 4},
	}
	for i, rep := range reports {
		rep.deriveRatios()
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Errorf("report %d: json.Marshal failed: %v", i, err)
			continue
		}
		if strings.Contains(string(buf), "Inf") || strings.Contains(string(buf), "NaN") {
			t.Errorf("report %d: non-finite value leaked into JSON: %s", i, buf)
		}
	}
	// The fully measured case must still compute the real ratios.
	rep := reports[len(reports)-1]
	rep.deriveRatios()
	if rep.ParallelSpeedup != 2 {
		t.Errorf("derived parallel speedup = %v, want 2", rep.ParallelSpeedup)
	}
}

// TestCheckBaselineSkipsWallGateOnCoarseClock: when a measured duration is
// zero the paired-run wall-clock gate is meaningless (the guarded ratio is
// 0) and must be skipped rather than fail the run; the visit gates still
// apply.
func TestCheckBaselineSkipsWallGateOnCoarseClock(t *testing.T) {
	base := benchReport{IncrementalVisits: 20, Workers: 4, IncrementalNs: 300, ParallelNs: 100}
	base.deriveRatios()                                   // baseline parallel speedup 3x
	rep := benchReport{IncrementalVisits: 20, Workers: 4} // all timings 0
	rep.deriveRatios()
	var log strings.Builder
	if err := checkBaseline(rep, base, &log); err != nil {
		t.Errorf("zero-clock report failed the gate: %v", err)
	}
	if !strings.Contains(log.String(), "parallel gate skipped") {
		t.Errorf("success line claims a wall gate that never ran: %s", log.String())
	}

	// The visit gate still bites on a zeroed clock...
	rep.IncrementalVisits = 30
	if err := checkBaseline(rep, base, io.Discard); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("zero-clock visit regression passed the gate: %v", err)
	}
	// ...and once both runs are timed, the wall gate is armed again.
	rep.IncrementalVisits, rep.IncrementalNs, rep.ParallelNs = 20, 100, 200
	rep.deriveRatios()
	if err := checkBaseline(rep, base, io.Discard); err == nil {
		t.Error("parallel at 0.5x sequential passed the gate")
	}
}

// TestCheckBaselineParallelGates covers the parallel paired-run gates: the
// absolute floor (parallel must not lose to sequential beyond clock
// tolerance, on any machine), the relative gate (a baseline that recorded a
// real multicore advantage must not see it halve), and the skip conditions
// — one worker, or a zeroed clock.
func TestCheckBaselineParallelGates(t *testing.T) {
	base := benchReport{IncrementalVisits: 20}
	base.deriveRatios()

	// Parallel slower than sequential beyond the floor fails even with no
	// parallel baseline numbers at all.
	rep := benchReport{IncrementalVisits: 20, Workers: 4, IncrementalNs: 100, ParallelNs: 200}
	rep.deriveRatios()
	if err := checkBaseline(rep, base, io.Discard); err == nil {
		t.Error("parallel at 0.5x sequential passed the gate")
	}
	// Within clock tolerance of 1.0 passes.
	rep.ParallelNs = 105
	rep.deriveRatios()
	if err := checkBaseline(rep, base, io.Discard); err != nil {
		t.Errorf("parallel within the floor failed the gate: %v", err)
	}
	// One worker, or a zeroed clock, skips the gate entirely.
	rep.ParallelNs = 400
	rep.Workers = 1
	rep.deriveRatios()
	if err := checkBaseline(rep, base, io.Discard); err != nil {
		t.Errorf("1-worker run hit the parallel gate: %v", err)
	}
	rep.Workers, rep.ParallelNs = 4, 0
	rep.deriveRatios()
	if err := checkBaseline(rep, base, io.Discard); err != nil {
		t.Errorf("zero-clock run hit the parallel gate: %v", err)
	}

	// A multicore baseline with a real advantage arms the relative gate.
	base.Workers, base.IncrementalNs, base.ParallelNs = 4, 300, 100
	base.deriveRatios() // baseline parallel speedup 3x
	rep.Workers, rep.IncrementalNs, rep.ParallelNs = 4, 120, 100
	rep.deriveRatios() // 1.2x: above the floor, but under 3x / 2
	if err := checkBaseline(rep, base, io.Discard); err == nil {
		t.Error("collapsed parallel speedup passed the relative gate")
	}
	rep.IncrementalNs = 160
	rep.deriveRatios() // 1.6x: keeps more than half the baseline advantage
	if err := checkBaseline(rep, base, io.Discard); err != nil {
		t.Errorf("healthy parallel run failed the relative gate: %v", err)
	}
}

// TestResolveBaseline pins the CPU-count baseline selection: a file path
// passes through untouched, a directory resolves to the single-core or
// multicore baseline by the machine's effective CPU count, and a missing
// path errors instead of silently skipping the gate.
func TestResolveBaseline(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "some.json")
	if err := os.WriteFile(file, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := resolveBaseline(file); err != nil || got != file {
		t.Errorf("resolveBaseline(file) = %q, %v; want the file itself", got, err)
	}
	want := filepath.Join(dir, "baseline.json")
	if runtime.GOMAXPROCS(0) > 1 {
		want = filepath.Join(dir, "baseline-multicore.json")
	}
	if got, err := resolveBaseline(dir); err != nil || got != want {
		t.Errorf("resolveBaseline(dir) = %q, %v; want %q", got, err, want)
	}
	if _, err := resolveBaseline(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing baseline path resolved without error")
	}
}

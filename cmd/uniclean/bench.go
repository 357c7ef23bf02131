package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/clean"
	"repro/internal/gen"
)

// benchReport is the JSON record one -bench run emits. Visits are the
// deterministic work measure (rule-applier tuple visits, see
// clean.ApplyStats); the nanosecond timings are recorded for the perf
// trajectory but are machine-dependent, so the regression gate compares
// visits, not wall-clock. The parallel run must agree with the sequential
// incremental run down to the visit counters (a hard failure otherwise).
type benchReport struct {
	Config            gen.Config
	IncrementalNs     int64
	IncrementalVisits int
	CertifyVisits     int // MD certification pairs verified; naive is |D|·|Dm| per MD rule
	Workers           int // effective worker count of the parallel run
	ParallelNs        int64
	ParallelSpeedup   float64 // IncrementalNs / ParallelNs, same process and machine
	ParallelVisits    int     // must equal IncrementalVisits
	Fixes             int
	Asserts           int
	Conflicts         int
	Unresolved        int

	// Update-replay mode (-bench.updates > 0): a generated upsert/delete
	// stream is replayed through a streaming engine (clean.NewStream) in
	// sequential and parallel mode. UpdateVisits sums the applier tuple
	// visits of every update's re-run — the deterministic work measure,
	// hard-checked equal across worker counts and gated ±20% against the
	// baseline in both directions (a collapse to zero means the replay
	// stopped doing measured work). UpdateNs and UpdatesPerSec are the
	// recorded (never gated) wall side.
	UpdateCount   int
	UpdateVisits  int
	UpdateNs      int64
	UpdatesPerSec float64
}

// maxVisitRegression is the CI gate: the run fails when the incremental
// engine's visit count grows more than 20% over the committed baseline.
const maxVisitRegression = 1.20

// pairedSpeedupSlack is the relative parallel wall-clock gate: on a runner
// whose baseline recorded a real parallel advantage, the measured
// parallel speedup may fall at most this factor below the baseline's.
// Paired runs cancel machine speed but not scheduler noise, so the slack
// is generous — only losing half the advantage fails; the visit gates stay
// the precise instrument.
const pairedSpeedupSlack = 2.0

// parallelWallFloor is the absolute floor of the parallel-vs-sequential
// paired run: ParallelSpeedup must stay at or above it on every machine,
// including single-core, where the fast path makes Workers: 4 degrade to
// the sequential computation plus noise. The floor sits a tolerance below
// 1.0 because a paired run cancels machine speed but not clock jitter; a
// genuine "parallel is slower" regression lands well under it.
const parallelWallFloor = 0.90

// benchRounds is how many interleaved timing samples -bench takes of each
// engine mode; the fastest sample is the reported duration.
const benchRounds = 3

// ratio returns num/den, or 0 when den is zero: a zero-duration timing on a
// coarse clock, or an empty visit counter, must not put +Inf or NaN into the
// report — json.Marshal rejects non-finite floats with an
// UnsupportedValueError, which used to kill the whole -bench run.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// deriveRatios fills the report's derived ratio field from the measured
// ones, guarding the division.
func (r *benchReport) deriveRatios() {
	r.ParallelSpeedup = ratio(float64(r.IncrementalNs), float64(r.ParallelNs))
}

// runBench generates the configured synthetic instance, runs the full
// pipeline sequentially and in parallel with the requested worker count,
// writes the JSON report, and enforces the baseline gate when one is given.
// A canceled or expired ctx fails the run before any report is written.
func runBench(ctx context.Context, cfg gen.Config, workers, updates int, outPath, baselinePath string, stderr io.Writer) error {
	inst := gen.Generate(cfg)
	opts := clean.DefaultOptions()

	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Each engine mode is timed benchRounds times, interleaved — sequential,
	// parallel, then again — and the fastest sample wins. The pipeline is
	// deterministic, so repeated runs compute identical results;
	// interleaving matters because the jitter on shared runners (GC pauses,
	// container CPU throttling) is epoch-correlated, and back-to-back
	// same-mode samples used to swing the paired wall ratio ±15% and flake
	// the wall gate.
	modes := []int{1, workers}
	results := make([]*clean.Result, len(modes))
	best := make([]int64, len(modes))
	for round := 0; round < benchRounds; round++ {
		for m, w := range modes {
			o := opts
			o.Workers = w
			t0 := time.Now()
			res, err := clean.RunContext(ctx, inst.Data, inst.Master, inst.Rules, o)
			if err != nil {
				return fmt.Errorf("bench: %w", err)
			}
			if ns := time.Since(t0).Nanoseconds(); round == 0 || ns < best[m] {
				best[m] = ns
			}
			if round == 0 {
				results[m] = res
			}
		}
	}
	inc, incrementalNs := results[0], best[0]
	par, parallelNs := results[1], best[1]

	// The engines must agree fix-for-fix, and the parallel engine must
	// match the sequential visit counters exactly: it shards the same
	// worklists, so any drift means the merge replayed different work, not
	// just scheduled it elsewhere. A benchmark that measures different
	// computations is worthless, so disagreement is a hard failure.
	if err := diffRuns("parallel", "incremental", par, inc); err != nil {
		return err
	}
	if par.TotalVisits() != inc.TotalVisits() {
		return fmt.Errorf("bench: parallel visits %d != incremental visits %d",
			par.TotalVisits(), inc.TotalVisits())
	}
	// Certification work is deterministic too: both engines certify the
	// same repaired relation through the same blocked enumeration, and the
	// parallel checker merges per-rule passes — so the counter must not
	// depend on worker count.
	if par.Report.CertVisits != inc.Report.CertVisits {
		return fmt.Errorf("bench: certify visits disagree: incremental %d, parallel %d",
			inc.Report.CertVisits, par.Report.CertVisits)
	}

	rep := benchReport{
		Config:            inst.Config,
		IncrementalNs:     incrementalNs,
		IncrementalVisits: inc.TotalVisits(),
		CertifyVisits:     inc.Report.CertVisits,
		Workers:           workers,
		ParallelNs:        parallelNs,
		ParallelVisits:    par.TotalVisits(),
		Fixes:             len(inc.Fixes),
		Asserts:           inc.Asserts,
		Conflicts:         len(inc.Conflicts),
		Unresolved:        len(inc.Unresolved),
	}
	rep.deriveRatios()

	if updates > 0 {
		if err := runUpdateBench(ctx, inst, updates, workers, opts, &rep, stderr); err != nil {
			return err
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bench: %d tuples, %d dirtied cells, %d fixes\n",
		inst.Config.Tuples, inst.Dirtied, rep.Fixes)
	fmt.Fprintf(stderr, "bench: incremental   %8.1fms  %9d visits\n",
		float64(incrementalNs)/1e6, rep.IncrementalVisits)
	fmt.Fprintf(stderr, "bench: parallel(%2d)  %8.1fms  %9d visits\n",
		workers, float64(parallelNs)/1e6, rep.ParallelVisits)
	fmt.Fprintf(stderr, "bench: certify       %9d pairs verified (naive scan: %d per MD rule)\n",
		rep.CertifyVisits, inst.Config.Tuples*inst.Config.MasterSize)
	fmt.Fprintf(stderr, "bench: parallel speedup %.2fx, report written to %s\n",
		rep.ParallelSpeedup, outPath)

	if baselinePath == "" {
		return nil
	}
	path, err := resolveBaseline(baselinePath)
	if err != nil {
		return err
	}
	if path != baselinePath {
		fmt.Fprintf(stderr, "bench: %d effective CPUs, gating against %s\n", runtime.GOMAXPROCS(0), path)
	}
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	return checkBaseline(rep, base, stderr)
}

// runUpdateBench replays a generated update stream through streaming
// engines in sequential and parallel mode and fills the report's Update*
// fields. The two replays must agree on every final observable and on the
// summed applier visit counters — the streaming analogue of the
// parallel-vs-sequential hard check of the batch bench.
func runUpdateBench(ctx context.Context, inst *gen.Instance, updates, workers int, opts clean.Options, rep *benchReport, stderr io.Writer) error {
	stream := gen.GenerateUpdates(inst, gen.UpdateConfig{
		Updates:      updates,
		DeleteRate:   0.15,
		AppendRate:   0.25,
		HotGroupRate: 0.2,
		Seed:         inst.Config.Seed,
	})

	type replay struct {
		res    *clean.Result
		visits int
		ns     int64
	}
	run := func(w int) (replay, error) {
		o := opts
		o.Workers = w
		e, err := clean.NewStreamContext(ctx, inst.Data, inst.Master, inst.Rules, o)
		if err != nil {
			return replay{}, fmt.Errorf("bench: stream setup: %w", err)
		}
		var out replay
		t0 := time.Now()
		for i, u := range stream {
			var res *clean.Result
			if u.Delete {
				res, err = e.DeleteContext(ctx, u.ID)
			} else {
				res, err = e.UpsertContext(ctx, u.ID, u.Values, u.Conf)
			}
			if err != nil {
				return replay{}, fmt.Errorf("bench: update %d: %w", i, err)
			}
			out.visits += res.TotalVisits()
		}
		out.ns = time.Since(t0).Nanoseconds()
		out.res = e.Result()
		return out, nil
	}

	seq, err := run(1)
	if err != nil {
		return err
	}
	par, err := run(workers)
	if err != nil {
		return err
	}
	if err := diffRuns("parallel update replay", "sequential update replay", par.res, seq.res); err != nil {
		return err
	}
	if par.visits != seq.visits {
		return fmt.Errorf("bench: update replay visits disagree: parallel %d != sequential %d",
			par.visits, seq.visits)
	}

	rep.UpdateCount = len(stream)
	rep.UpdateVisits = seq.visits
	rep.UpdateNs = par.ns
	rep.UpdatesPerSec = ratio(float64(len(stream)), float64(par.ns)/1e9)
	fmt.Fprintf(stderr, "bench: updates(%2d)   %8.1fms  %9d visits, %.1f updates/sec\n",
		workers, float64(par.ns)/1e6, rep.UpdateVisits, rep.UpdatesPerSec)
	return nil
}

// resolveBaseline maps the -bench.baseline argument to a concrete file:
// given a directory, it picks baseline-multicore.json when the process has
// more than one effective CPU and baseline.json otherwise, so one CI
// invocation gates every runner class against the numbers a machine of its
// shape can actually reproduce — wall ratios measured on a multicore box
// are unreachable on a single-core container and vice versa.
func resolveBaseline(path string) (string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !info.IsDir() {
		return path, nil
	}
	name := "baseline.json"
	if runtime.GOMAXPROCS(0) > 1 {
		name = "baseline-multicore.json"
	}
	return filepath.Join(path, name), nil
}

// diffRuns fails when two engine runs over the same instance differ in any
// observable way: fixes, asserts, conflicts, certified report, or repaired
// cells.
func diffRuns(got, want string, a, b *clean.Result) error {
	if !reflect.DeepEqual(a.Fixes, b.Fixes) || a.Asserts != b.Asserts ||
		!reflect.DeepEqual(a.Conflicts, b.Conflicts) ||
		a.Report.String() != b.Report.String() ||
		a.Data.DiffCells(b.Data) != 0 {
		return fmt.Errorf("bench: %s and %s engines disagree (%d vs %d fixes, %d vs %d asserts, %d differing cells)",
			got, want, len(a.Fixes), len(b.Fixes), a.Asserts, b.Asserts, a.Data.DiffCells(b.Data))
	}
	return nil
}

func readBaseline(path string) (benchReport, error) {
	var base benchReport
	buf, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(buf, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// checkBaseline fails the run when the deterministic work counters regress
// more than 20% against the committed baseline, or when the paired-run
// parallel wall-clock advantage collapses. Absolute time is never gated —
// CI runners are too noisy — but a paired run (sequential and parallel in
// the same process, same machine) cancels machine speed. The wall gate is
// skipped when a coarse clock zeroed a measured duration: the ratio is
// then 0 by construction and meaningless.
func checkBaseline(rep, base benchReport, stderr io.Writer) error {
	if base.IncrementalVisits <= 0 {
		return fmt.Errorf("bench: baseline has no visit counts; regenerate it with -bench")
	}
	if got, limit := rep.IncrementalVisits, float64(base.IncrementalVisits)*maxVisitRegression; float64(got) > limit {
		return fmt.Errorf("bench: incremental visits regressed: %d > %.0f (baseline %d +20%%)",
			got, limit, base.IncrementalVisits)
	}
	if base.CertifyVisits > 0 {
		if got, limit := rep.CertifyVisits, float64(base.CertifyVisits)*maxVisitRegression; float64(got) > limit {
			return fmt.Errorf("bench: certify visits regressed: %d > %.0f (baseline %d +20%%)",
				got, limit, base.CertifyVisits)
		}
	}
	// The update-replay gate is symmetric: visits above the band mean the
	// streaming layer started re-doing work (index rebuilds, dead caching),
	// below it that the replay stopped measuring real work — both are
	// regressions of what the baseline certifies. It arms only when both
	// sides actually replayed a stream.
	if base.UpdateVisits > 0 && rep.UpdateCount > 0 {
		if got, limit := rep.UpdateVisits, float64(base.UpdateVisits)*maxVisitRegression; float64(got) > limit {
			return fmt.Errorf("bench: update-replay visits regressed: %d > %.0f (baseline %d +20%%)",
				got, limit, base.UpdateVisits)
		}
		if got, floor := rep.UpdateVisits, float64(base.UpdateVisits)/maxVisitRegression; float64(got) < floor {
			return fmt.Errorf("bench: update-replay visits collapsed: %d < %.0f (baseline %d -20%%); if the streaming layer genuinely got cheaper, regenerate the baseline",
				got, floor, base.UpdateVisits)
		}
	}
	// The parallel paired run gates on every machine: Workers > 1 must
	// never lose to the sequential engine beyond clock tolerance — the
	// fast path routes small rounds inline, so even a single core has
	// nothing to lose — and on a runner whose baseline recorded a real
	// parallel advantage (a multicore box), losing more than half of it
	// fails.
	if rep.Workers > 1 && rep.IncrementalNs > 0 && rep.ParallelNs > 0 {
		if rep.ParallelSpeedup < parallelWallFloor {
			return fmt.Errorf("bench: parallel engine slower than sequential: %.2fx < %.2f floor",
				rep.ParallelSpeedup, parallelWallFloor)
		}
		if base.ParallelSpeedup >= 1 && rep.ParallelSpeedup*pairedSpeedupSlack < base.ParallelSpeedup {
			return fmt.Errorf("bench: parallel speedup collapsed: %.2fx < baseline %.2fx / %.1f",
				rep.ParallelSpeedup, base.ParallelSpeedup, pairedSpeedupSlack)
		}
	}
	// The success line reports only the gates that actually ran: a baseline
	// without certify counts or a coarse clock skips a gate, and the log
	// must not claim a comparison that never happened.
	certGate := "certify gate skipped (no baseline count)"
	if base.CertifyVisits > 0 {
		certGate = fmt.Sprintf("certify %d <= %d +20%%", rep.CertifyVisits, base.CertifyVisits)
	}
	parGate := "parallel gate skipped (1 worker or zeroed clock)"
	if rep.Workers > 1 && rep.IncrementalNs > 0 && rep.ParallelNs > 0 {
		parGate = fmt.Sprintf("parallel speedup %.2fx >= %.2f", rep.ParallelSpeedup, parallelWallFloor)
	}
	updGate := "update gate skipped (no replay or no baseline count)"
	if base.UpdateVisits > 0 && rep.UpdateCount > 0 {
		updGate = fmt.Sprintf("update visits %d within %d +-20%%", rep.UpdateVisits, base.UpdateVisits)
	}
	fmt.Fprintf(stderr, "bench: within baseline (visits %d <= %d +20%%, %s, %s, %s)\n",
		rep.IncrementalVisits, base.IncrementalVisits, certGate, parGate, updGate)
	return nil
}

// benchSHA picks the label embedded in the default output file name.
func benchSHA(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	if sha := os.Getenv("GITHUB_SHA"); len(sha) >= 8 {
		return sha[:8]
	}
	return "local"
}

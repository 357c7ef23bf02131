// Command uniclean runs the unified data-cleaning pipeline of the paper
// over CSV inputs: cRepair (confidence-based deterministic fixes), eRepair
// (entropy-based reliable fixes) and hRepair (heuristic possible fixes).
//
// Usage:
//
//	uniclean -data data.csv [-conf conf.csv] [-master master.csv] -rules rules.txt [-out repaired.csv] [-certify] [-workers N]
//	uniclean ... -updates updates.csv   # replay a streaming update file after the initial clean
//	uniclean -bench [-bench.tuples N] [-bench.dirty R] [-bench.seed S] [-bench.updates N] [-workers N] [-bench.baseline bench/baseline.json]
//	uniclean ... -cpuprofile cpu.pprof -memprofile mem.pprof   # profile any of the above
//
// The repaired relation is written as CSV to -out ("-" for stdout); the
// cleaning report — fix counts, matcher statistics, conflicts and the
// resolution status of every rule — goes to stderr. With -certify, the
// Checker's full violation report is printed when the output is still
// dirty. Certification honors -workers too: its per-rule passes fan out
// across the engine's workers, and the report is identical for any worker
// count.
//
// With -updates, the initial clean is followed by a streaming replay
// (docs/streaming.md): each CSV record is either "upsert,<id>,v1,...,vN"
// (overwrite tuple id, or append when id equals the current length; cell
// confidences come from -defaultconf) or "delete,<id>" (tombstone the
// tuple). Every accepted update leaves the instance and its certification
// report exactly as a from-scratch run on the updated input would; invalid
// records are reported to stderr and skipped.
//
// With -bench, the tool instead generates a synthetic dirty instance
// (internal/gen), runs the pipeline sequentially and with the parallel
// engine (-workers, default GOMAXPROCS), writes a BENCH_<sha>.json report
// with timings and deterministic visit counters, and — when
// -bench.baseline is given — fails if the visit counters regressed more
// than 20% against the committed baseline or the parallel run lost to the
// sequential one. The two runs must agree fix-for-fix, and the parallel
// run must reproduce the sequential visit counters exactly; either
// mismatch is a hard error. -timeout and SIGINT/SIGTERM stop -bench like
// any other run: exit status 3, no report.
// With -bench.updates N, the report additionally replays a generated
// N-operation update stream through the streaming engine, sequentially and
// with -workers, records update visit counters and updates/sec, and gates
// UpdateVisits against the baseline the same way.
//
// Exit status distinguishes failure modes: 0 when the output satisfies
// every rule, 1 on usage, I/O or rule-parsing errors, 2 when cleaning
// completed but violations remain unresolved, and 3 when the run was
// cancelled (SIGINT/SIGTERM) or hit the -timeout deadline before finishing.
// A status-3 run writes no output: the engine guarantees its input was
// never mutated and no partial round escaped.
//
// -cpuprofile and -memprofile write pprof profiles of the whole invocation
// (read them with go tool pprof): CPU samples from flag parsing to exit, and
// the heap, with every allocation since start, taken at exit.
//
// -timeout is a hard budget: the run aborts with status 3. The soft budgets
// -deadline and -maxfixes degrade instead: the engine stops proposing fixes,
// certifies what it reached, and reports the remaining violations with a
// "degraded" marker — a truthful partial answer, exiting 0 or 2 as usual.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/clean"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/rule"
)

// errDirty marks a run that completed but left rule violations in the
// output. main maps it to exit status 2, distinct from I/O and usage errors
// (status 1), so scripts can tell "the data could not be fully cleaned"
// from "the tool could not run".
var errDirty = errors.New("violations remain in the output")

// exitCode maps a run error to the process exit status.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errDirty):
		return 2
	case errors.Is(err, clean.ErrCanceled), errors.Is(err, clean.ErrDeadline):
		return 3
	default:
		return 1
	}
}

func main() {
	// SIGINT/SIGTERM cancel the run's context; the engine stops at the next
	// round boundary with its state rewound, and the process exits 3. A
	// second signal kills the process via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "uniclean:", err)
	}
	os.Exit(exitCode(err))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("uniclean", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataPath := fs.String("data", "", "data relation CSV (required)")
	confPath := fs.String("conf", "", "per-cell confidence CSV: the header and row count of -data (optional)")
	masterPath := fs.String("master", "", "master relation CSV (optional)")
	rulesPath := fs.String("rules", "", "cleaning rules file (required)")
	outPath := fs.String("out", "-", "repaired relation CSV output, '-' for stdout")
	eta := fs.Float64("eta", 0.8, "confidence threshold for deterministic fixes")
	topL := fs.Int("topl", 32, "master values kept per edit-distance lookup, closest first")
	hBudget := fs.Int("hbudget", clean.DefaultHBudget, "per-cell change budget of hRepair")
	defaultConf := fs.Float64("defaultconf", 0, "cell confidence assumed when -conf is not given")
	certify := fs.Bool("certify", false, "print the checker's violation report when the output is still dirty")
	verbose := fs.Bool("v", false, "list every fix in the report")
	workers := fs.Int("workers", 0, "workers for index builds, lookup prefetch and certification (0 = GOMAXPROCS, 1 = sequential); any value yields identical fixes, repaired output and -certify report")
	timeout := fs.Duration("timeout", 0, "hard wall-clock limit; on expiry the run aborts with exit status 3 and writes no output (0 = none)")
	deadline := fs.Duration("deadline", 0, "soft wall-clock budget; on expiry the engine stops proposing fixes and reports a degraded but truthful result (0 = none)")
	maxFixes := fs.Int("maxfixes", 0, "soft fix budget; reaching it degrades the run like -deadline (0 = none)")
	updatesPath := fs.String("updates", "", "CSV update stream to replay through the streaming engine after the initial clean: 'upsert,<id>,v1,...,vN' or 'delete,<id>' per record")
	bench := fs.Bool("bench", false, "run the synthetic benchmark instead of cleaning CSV input")
	benchTuples := fs.Int("bench.tuples", 10000, "bench: data relation size")
	benchMaster := fs.Int("bench.master", 1000, "bench: master relation size")
	benchDirty := fs.Float64("bench.dirty", 0.05, "bench: per-cell error rate")
	benchFanout := fs.Int("bench.fanout", 3, "bench: constant-CFD fanout")
	benchSeed := fs.Int64("bench.seed", 1, "bench: generator seed")
	benchUpdates := fs.Int("bench.updates", 0, "bench: also replay this many generated upserts/deletes through the streaming engine, sequential and parallel (0 = off)")
	benchOut := fs.String("bench.out", "", "bench: JSON report path (default BENCH_<sha>.json)")
	benchBaseline := fs.String("bench.baseline", "", "bench: baseline JSON to gate regressions against; a directory picks baseline-multicore.json or baseline.json by effective CPU count")
	benchSha := fs.String("bench.sha", "", "bench: label for the default report name (default $GITHUB_SHA or 'local')")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken at exit, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Confidences and the bench's error rate live in [0,1]: the same range
	// ReadConfCSV and the streaming engine's Upsert enforce. NaN fails both
	// comparisons.
	for _, f := range []struct {
		name string
		v    float64
	}{{"eta", *eta}, {"defaultconf", *defaultConf}, {"bench.dirty", *benchDirty}} {
		if !(f.v >= 0 && f.v <= 1) {
			fs.Usage()
			return fmt.Errorf("-%s %v outside [0,1]", f.name, f.v)
		}
	}
	// A suffix-array lookup with fewer than one candidate finds nothing, a
	// bench instance needs data and master tuples, and no count or
	// duration flag has a meaning below zero; 0 keeps its documented
	// meaning everywhere else.
	for _, f := range []struct {
		name string
		v    int
	}{{"topl", *topL}, {"bench.tuples", *benchTuples}, {"bench.master", *benchMaster}} {
		if f.v < 1 {
			fs.Usage()
			return fmt.Errorf("-%s %d below 1", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name     string
		v        any
		negative bool
	}{
		{"hbudget", *hBudget, *hBudget < 0},
		{"workers", *workers, *workers < 0},
		{"maxfixes", *maxFixes, *maxFixes < 0},
		{"deadline", *deadline, *deadline < 0},
		{"timeout", *timeout, *timeout < 0},
		{"bench.fanout", *benchFanout, *benchFanout < 0},
		{"bench.updates", *benchUpdates, *benchUpdates < 0},
	} {
		if f.negative {
			fs.Usage()
			return fmt.Errorf("-%s %v is negative", f.name, f.v)
		}
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *bench {
		cfg := gen.DefaultConfig()
		cfg.Tuples = *benchTuples
		cfg.MasterSize = *benchMaster
		cfg.ErrorRate = *benchDirty
		cfg.RuleFanout = *benchFanout
		cfg.Seed = *benchSeed
		out := *benchOut
		if out == "" {
			out = fmt.Sprintf("BENCH_%s.json", benchSHA(*benchSha))
		}
		return runBench(ctx, cfg, *workers, *benchUpdates, out, *benchBaseline, stderr)
	}
	if *dataPath == "" || *rulesPath == "" {
		fs.Usage()
		return fmt.Errorf("-data and -rules are required")
	}

	data, err := readRelation(*dataPath)
	if err != nil {
		return err
	}
	if *confPath != "" {
		f, err := os.Open(*confPath)
		if err != nil {
			return err
		}
		err = relation.ReadConfCSV(data, f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		data.SetAllConf(*defaultConf)
	}

	var master *relation.Relation
	var masterSchema *relation.Schema
	if *masterPath != "" {
		if master, err = readRelation(*masterPath); err != nil {
			return err
		}
		master.SetAllConf(1) // master data is clean by assumption
		masterSchema = master.Schema
	}

	text, err := os.ReadFile(*rulesPath)
	if err != nil {
		return err
	}
	cfds, mds, err := rule.ParseRules(data.Schema, masterSchema, string(text))
	if err != nil {
		return fmt.Errorf("%s: %w", *rulesPath, err)
	}
	rules := rule.Derive(cfds, mds)
	if len(rules) == 0 {
		return fmt.Errorf("%s: no rules", *rulesPath)
	}

	opts := clean.Options{Eta: *eta, TopL: *topL, HBudget: *hBudget, Workers: *workers,
		Deadline: *deadline, MaxFixes: *maxFixes}
	var res *clean.Result
	if *updatesPath != "" {
		// Replay mode: clean once, then stream the update file through
		// Upsert/Delete. Each accepted update leaves the engine exactly as
		// a from-scratch run on the updated input would; a rejected update
		// (bad id, wrong arity) is reported and skipped, and a canceled or
		// failed one aborts with the engine's typed error.
		e, err := clean.NewStreamContext(ctx, data, master, rules, opts)
		if err != nil {
			return err
		}
		applied, rejected, err := replayUpdates(ctx, e, *updatesPath, *defaultConf, stderr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "uniclean: replayed %d updates (%d rejected)\n", applied, rejected)
		res = e.Result()
	} else {
		var err error
		res, err = clean.RunContext(ctx, data, master, rules, opts)
		if err != nil {
			return err
		}
	}

	out := stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := res.Data.WriteCSV(out); err != nil {
		return err
	}
	report(stderr, master, rules, res, *verbose)
	if !res.Report.Clean() {
		if *certify {
			fmt.Fprint(stderr, res.Report)
		}
		return fmt.Errorf("%d rules unresolved: %w", len(res.Unresolved), errDirty)
	}
	return nil
}

// startProfiles starts the CPU profile when cpuPath is set and returns the
// function that stops it and, when memPath is set, writes the heap
// profile; either path may be empty.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeapProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the heap profile reports the state as of the last GC
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}

// replayUpdates streams the CSV update file through the engine: records
// "upsert,<id>,v1,...,vN" (cells take -defaultconf confidence) and
// "delete,<id>". A malformed record or an update the engine rejects
// (clean.ErrBadUpdate) is reported to stderr and skipped; any other error
// — cancellation, deadline, a contained worker failure — aborts the replay
// with the engine guaranteed unchanged by the failed update.
func replayUpdates(ctx context.Context, e *clean.Engine, path string, defaultConf float64, stderr io.Writer) (applied, rejected int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	reject := func(line int, why string) {
		rejected++
		fmt.Fprintf(stderr, "uniclean: update %d rejected: %s\n", line, why)
	}
	for line := 1; ; line++ {
		rec, rerr := r.Read()
		if rerr == io.EOF {
			return applied, rejected, nil
		}
		if rerr != nil {
			return applied, rejected, fmt.Errorf("%s: %w", path, rerr)
		}
		if len(rec) < 2 {
			reject(line, "want 'upsert,<id>,v1,...' or 'delete,<id>'")
			continue
		}
		id, aerr := strconv.Atoi(rec[1])
		if aerr != nil {
			reject(line, fmt.Sprintf("bad id %q", rec[1]))
			continue
		}
		var uerr error
		switch rec[0] {
		case "delete":
			_, uerr = e.DeleteContext(ctx, id)
		case "upsert":
			values := rec[2:]
			conf := make([]float64, len(values))
			for i := range conf {
				conf[i] = defaultConf
			}
			_, uerr = e.UpsertContext(ctx, id, values, conf)
		default:
			reject(line, fmt.Sprintf("unknown op %q", rec[0]))
			continue
		}
		switch {
		case uerr == nil:
			applied++
		case errors.Is(uerr, clean.ErrBadUpdate):
			reject(line, uerr.Error())
		default:
			return applied, rejected, uerr
		}
	}
}

func readRelation(path string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return relation.ReadCSV(name, f)
}

func report(w io.Writer, master *relation.Relation, rules []rule.Rule, res *clean.Result, verbose bool) {
	masterLen := 0
	if master != nil {
		masterLen = master.Len()
	}
	fmt.Fprintf(w, "uniclean: %d rules over %d tuples (master: %d tuples)\n",
		len(rules), res.Data.Len(), masterLen)
	if res.Degraded {
		fmt.Fprintf(w, "degraded: %s budget exhausted before the fixpoint; counts below are exact for the state reached\n",
			res.DegradeReason)
	}
	fmt.Fprintf(w, "cRepair: %d rounds, %d deterministic fixes, %d cells asserted\n",
		res.Rounds, len(res.DeterministicFixes()), res.Asserts)
	fmt.Fprintf(w, "eRepair: %d groups resolved, %d reliable fixes\n",
		res.GroupsResolved, len(res.ReliableFixes()))
	fmt.Fprintf(w, "hRepair: %d rounds, %d possible fixes\n",
		res.HRounds, len(res.PossibleFixes()))
	marks := res.Data.MarkCounts()
	fmt.Fprintf(w, "cells: %d untouched, %d deterministic, %d reliable, %d possible\n",
		marks[relation.FixNone], marks[relation.FixDeterministic],
		marks[relation.FixReliable], marks[relation.FixPossible])
	fmt.Fprintf(w, "scheduler: %d applier tuple visits\n", res.TotalVisits())
	names := make([]string, 0, len(res.Match))
	for name := range res.Match {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := res.Match[name]
		fmt.Fprintf(w, "match %s: %d lookups, %d candidates (%d verified, %d full scans) over |Dm|=%d\n",
			name, st.Lookups, st.Candidates, st.Verified, st.FullScans, st.MasterSize)
	}
	if verbose {
		for _, f := range res.Fixes {
			fmt.Fprintf(w, "fix %s\n", f)
		}
	}
	for _, c := range res.Conflicts {
		fmt.Fprintf(w, "conflict: %s\n", c)
	}
	fmt.Fprintf(w, "resolved: %s\n", orDash(res.Resolved))
	fmt.Fprintf(w, "unresolved: %s\n", orDash(res.Unresolved))
}

func orDash(names []string) string {
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, ", ")
}

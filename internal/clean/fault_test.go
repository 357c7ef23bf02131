package clean

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/rule"
)

// cellSnap is one cell's full state, captured for bit-exact comparison: the
// fault property promises a failed run leaves the caller's relation with
// every value, confidence and mark unchanged.
type cellSnap struct {
	val  string
	conf float64
	mark relation.FixMark
}

func snapshot(d *relation.Relation) [][]cellSnap {
	out := make([][]cellSnap, d.Len())
	for i, t := range d.Tuples {
		row := make([]cellSnap, len(t.Values))
		for a := range t.Values {
			row[a] = cellSnap{t.Values[a], t.Conf[a], t.Marks[a]}
		}
		out[i] = row
	}
	return out
}

// faultMode is one engine configuration the fault sweep runs under: the
// sequential default, and the forced-fan-out configuration that sends every
// nonempty index build, prefetch and certification through fanOut's
// workers, so fanOut's containment is actually on the hook.
type faultMode struct {
	name string
	opts Options
}

func faultModes() []faultMode {
	seq := DefaultOptions()
	pool := DefaultOptions()
	pool.Workers = 4
	pool.forceFanOut = true
	return []faultMode{{"seq", seq}, {"pool", pool}}
}

// faultConfig is one armed injector setup of the sweep.
type faultConfig struct {
	name  string
	pools bool // fan-out-only sites: skip under the sequential mode
	rules []fault.Rule
}

func faultConfigs() []faultConfig {
	return []faultConfig{
		{"panic-apply", false, []fault.Rule{{Site: fault.SiteApply, Kind: fault.Panic, Rate: 0.02}}},
		{"panic-seed", false, []fault.Rule{{Site: fault.SiteSeed, Kind: fault.Panic, Rate: 0.05}}},
		{"panic-certify", false, []fault.Rule{{Site: fault.SiteCertify, Kind: fault.Panic, Rate: 0.1}}},
		{"cancel-apply", false, []fault.Rule{{Site: fault.SiteApply, Kind: fault.Cancel, Rate: 0.01}}},
		{"delay-apply", false, []fault.Rule{{Site: fault.SiteApply, Kind: fault.Delay, Rate: 0.01}}},
		{"panic-sched", true, []fault.Rule{{Site: fault.SiteSched, Kind: fault.Panic, Rate: 0.05}}},
		{"cancel-sched", true, []fault.Rule{{Site: fault.SiteSched, Kind: fault.Cancel, Rate: 0.05}}},
		{"delay-sched", true, []fault.Rule{{Site: fault.SiteSched, Kind: fault.Delay, Rate: 0.05}}},
	}
}

// typedFailure reports whether err is one of the engine's documented failure
// shapes: the cancellation sentinels or a contained panic.
func typedFailure(err error) bool {
	var we *WorkerError
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) || errors.As(err, &we)
}

// TestPropertyFaultInjection is the crash-consistency oracle of the
// robustness work: over the seeded dirty instances, every injected fault —
// panics in appliers, seeding and certification, scheduling delays,
// injected cancellations — must leave the run in one of exactly two states:
//
//   - it fails with a typed error (ErrCanceled, ErrDeadline, *WorkerError)
//     and the caller's input relation is bit-unchanged, or
//   - it completes, and its Report and fix trace are byte-identical to the
//     fault-free baseline (delays in particular may never change anything).
//
// A partially applied round, a half-torn relation, or an untyped error is a
// property violation. The sweep runs both the sequential and the
// forced-fan-out engine; CI runs it under -race (the fault-sweep job).
func TestPropertyFaultInjection(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	configs := faultConfigs()
	for _, mode := range faultModes() {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				in := genInstance(seed)

				base := Run(in.relation(nil), nil, in.rules, mode.opts)
				baseReport := base.Report.String()

				for _, cfg := range configs {
					if cfg.pools && mode.opts.Workers <= 1 {
						continue
					}
					data := in.relation(nil)
					before := snapshot(data)

					inj := fault.New(seed, cfg.rules...)
					ctx, cancel := context.WithCancel(context.Background())
					inj.OnCancel(cancel)
					opts := mode.opts
					opts.Fault = inj
					res, err := RunContext(ctx, data, nil, in.rules, opts)
					cancel()

					if !reflect.DeepEqual(snapshot(data), before) {
						t.Fatalf("seed %d, %s: input relation mutated (err = %v)", seed, cfg.name, err)
					}
					if err != nil {
						if !typedFailure(err) {
							t.Fatalf("seed %d, %s: untyped failure %T: %v", seed, cfg.name, err, err)
						}
						continue
					}
					if got := res.Report.String(); got != baseReport {
						t.Fatalf("seed %d, %s: completed run diverges from fault-free report\n got: %s\nwant: %s",
							seed, cfg.name, got, baseReport)
					}
					if !reflect.DeepEqual(res.Fixes, base.Fixes) {
						t.Fatalf("seed %d, %s: completed run's fix trace diverges from baseline", seed, cfg.name)
					}
				}
			}
		})
	}
}

// TestRunContextPreCanceled pins prompt cancellation: a context canceled
// before the run starts returns ErrCanceled without touching the input.
func TestRunContextPreCanceled(t *testing.T) {
	in := genInstance(11)
	data := in.relation(nil)
	before := snapshot(data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, data, nil, in.rules, DefaultOptions())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatal("a failed run must not return a Result")
	}
	if !reflect.DeepEqual(snapshot(data), before) {
		t.Fatal("input relation mutated by canceled run")
	}
}

// TestRunContextHardDeadline pins the typed mapping of a context deadline.
func TestRunContextHardDeadline(t *testing.T) {
	in := genInstance(12)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, in.relation(nil), nil, in.rules, DefaultOptions())
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestWorkerErrorCoordinates pins the structured failure: a guaranteed
// applier panic with forced fan-outs surfaces as a *WorkerError naming the
// phase, the rule, and the work item, and unwraps to the injected fault.
func TestWorkerErrorCoordinates(t *testing.T) {
	in := genInstance(13)
	opts := DefaultOptions()
	opts.Workers = 4
	opts.forceFanOut = true
	opts.Fault = fault.New(13, fault.Rule{Site: fault.SiteApply, Kind: fault.Panic, Rate: 1})
	_, err := RunContext(context.Background(), in.relation(nil), nil, in.rules, opts)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	// The propagated failure names the phase, the rule and a worklist item.
	// Rule passes run inline, so the item is the first one the injector
	// hits; that depends on the worklist, not on this test, so the item is
	// asserted present, not pinned to 0.
	if we.Phase != "cRepair" || we.Rule == "" || we.Item < 0 {
		t.Fatalf("WorkerError coordinates = phase %q rule %q item %d, want cRepair/<rule>/>=0",
			we.Phase, we.Rule, we.Item)
	}
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("WorkerError does not unwrap to the injected fault: %v", err)
	}
	if len(we.Stack) == 0 {
		t.Fatal("WorkerError carries no stack trace")
	}
}

// TestInlineWorkerErrorCoordinates is TestWorkerErrorCoordinates under
// default options, where rule passes run inline: the panic comes back with
// the same coordinates as a fan-out task's, not as an anonymous "run"
// failure, at any worker count. Inline, the first item of the first rule
// pass panics, so the item is pinned to 0 and the shard to -1.
func TestInlineWorkerErrorCoordinates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		in := genInstance(13)
		opts := DefaultOptions()
		opts.Workers = workers
		opts.Fault = fault.New(13, fault.Rule{Site: fault.SiteApply, Kind: fault.Panic, Rate: 1})
		_, err := RunContext(context.Background(), in.relation(nil), nil, in.rules, opts)
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("%d workers: err = %v, want *WorkerError", workers, err)
		}
		if we.Phase != "cRepair" || we.Rule == "" || we.Item != 0 || we.Shard != -1 {
			t.Fatalf("%d workers: WorkerError coordinates = phase %q rule %q item %d shard %d, want cRepair/<rule>/0/-1",
				workers, we.Phase, we.Rule, we.Item, we.Shard)
		}
		var inj *fault.Injected
		if !errors.As(err, &inj) {
			t.Fatalf("%d workers: WorkerError does not unwrap to the injected fault: %v", workers, err)
		}
		if len(we.Stack) == 0 {
			t.Fatalf("%d workers: WorkerError carries no stack trace", workers)
		}
	}
}

// TestMaxFixesDegrades pins graceful degradation: a MaxFixes budget stops
// the engine at a round boundary with a completed Result whose Report is
// flagged Degraded and still truthful — an independent Checker pass over the
// returned relation counts exactly the violations the Report claims.
func TestMaxFixesDegrades(t *testing.T) {
	// Find an instance whose full clean needs several fixes, so a budget of
	// one provably cuts it short.
	var in *propInstance
	for seed := int64(0); seed < 50; seed++ {
		c := genInstance(seed)
		if base := Run(c.relation(nil), nil, c.rules, DefaultOptions()); len(base.Fixes) >= 3 {
			in = c
			break
		}
	}
	if in == nil {
		t.Fatal("no corpus instance needs >= 3 fixes")
	}
	opts := DefaultOptions()
	opts.MaxFixes = 1
	res, err := RunContext(context.Background(), in.relation(nil), nil, in.rules, opts)
	if err != nil {
		t.Fatalf("degraded run must complete, got %v", err)
	}
	if !res.Degraded || res.DegradeReason != "max-fixes" {
		t.Fatalf("Degraded = %v (%q), want true (max-fixes)", res.Degraded, res.DegradeReason)
	}
	if !res.Report.Degraded || res.Report.DegradeReason != "max-fixes" {
		t.Fatal("Report not flagged Degraded")
	}
	recheck := NewChecker(in.rules, nil).Check(res.Data)
	if recheck.NumCFD() != res.Report.NumCFD() || recheck.NumMD() != res.Report.NumMD() {
		t.Fatalf("degraded report is not truthful: claims %d/%d violations, recheck finds %d/%d",
			res.Report.NumCFD(), res.Report.NumMD(), recheck.NumCFD(), recheck.NumMD())
	}
	// Degradation is resumable: a budget-free run over the degraded output
	// finishes the job.
	resume := Run(res.Data, nil, in.rules, DefaultOptions())
	if !resume.Report.Clean() {
		t.Fatalf("resumed run did not reach a clean instance:\n%s", resume.Report)
	}
}

// TestSoftDeadlineDegrades pins the wall-clock budget: an already-expired
// soft deadline yields a completed, Degraded, truthful Report — not an
// error — with zero fixes proposed.
func TestSoftDeadlineDegrades(t *testing.T) {
	in := genInstance(14)
	opts := DefaultOptions()
	opts.Deadline = time.Nanosecond
	res, err := RunContext(context.Background(), in.relation(nil), nil, in.rules, opts)
	if err != nil {
		t.Fatalf("soft deadline must degrade, not fail: %v", err)
	}
	if !res.Degraded || res.DegradeReason != "deadline" {
		t.Fatalf("Degraded = %v (%q), want true (deadline)", res.Degraded, res.DegradeReason)
	}
	if len(res.Fixes) != 0 {
		t.Fatalf("expired-at-start budget proposed %d fixes, want 0", len(res.Fixes))
	}
	recheck := NewChecker(in.rules, nil).Check(res.Data)
	if recheck.NumCFD() != res.Report.NumCFD() {
		t.Fatal("degraded report disagrees with an independent recheck")
	}
}

// TestCheckContextCanceled pins the checker's own cancellation path.
func TestCheckContextCanceled(t *testing.T) {
	in := genInstance(15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewChecker(in.rules, nil).CheckContext(ctx, in.relation(nil))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestCheckContextFanOutErrorIsTyped pins the error contract of the
// certify fan-out: a Checker with master data and two workers runs its
// per-rule tasks on fanOut's goroutines, and a cancel or a panic landing
// in that fan-out — the first one the injector sees at rate 1 — must
// surface from CheckContext typed: ErrCanceled for the cancel, a
// *WorkerError of phase "certify" for the panic.
func TestCheckContextFanOutErrorIsTyped(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize = 400, 80
	inst := gen.Generate(cfg)
	for _, kind := range []fault.Kind{fault.Cancel, fault.Panic} {
		c := NewChecker(inst.Rules, inst.Master)
		c.workers = 2
		c.fj = fault.New(1, fault.Rule{Site: fault.SiteSched, Kind: kind, Rate: 1})
		ctx, cancel := context.WithCancel(context.Background())
		c.fj.OnCancel(cancel)
		_, err := c.CheckContext(ctx, inst.Data)
		cancel()
		if c.fj.Fired(kind) == 0 {
			t.Fatalf("%v: the injector never fired", kind)
		}
		var we *WorkerError
		switch {
		case kind == fault.Cancel && !errors.Is(err, ErrCanceled):
			t.Fatalf("cancel in the certify fan-out: err = %v, want ErrCanceled", err)
		case kind == fault.Panic && (!errors.As(err, &we) || we.Phase != "certify"):
			t.Fatalf("panic in the certify fan-out: err = %v, want a *WorkerError from certify", err)
		}
	}
}

// TestMaxFixesStopsCRepairRounds pins cRepair's own round-boundary budget
// check: trusted premises let cRepair write two fixes in its first round,
// past a MaxFixes of 1, so the run must degrade right there — one cRepair
// round, no reliable fix for the conflicted C -> D group eRepair would
// resolve, no possible fix.
func TestMaxFixesStopsCRepairRounds(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B", "C", "D")
	rules := rule.Derive([]*cfd.CFD{
		cfd.New("constAB", schema, []string{"A"}, []string{"a"}, "B", "b"),
		cfd.FD("fdCD", schema, []string{"C"}, "D"),
	}, nil)
	data := relation.New(schema)
	for _, row := range [][]string{{"a", "x", "c", "d1"}, {"a", "y", "c", "d2"}, {"a2", "z", "c", "d1"}} {
		tp := data.Append(row...)
		copy(tp.Conf, []float64{0.9, 0.5, 0.5, 0.5})
	}
	data.Tuples[2].Conf[0] = 0.5
	if full := Run(data, nil, rules, DefaultOptions()); full.Rounds < 2 || len(full.ReliableFixes()) == 0 {
		t.Fatalf("unbudgeted run: %d cRepair rounds, %d reliable fixes; want >= 2 and > 0", full.Rounds, len(full.ReliableFixes()))
	}
	opts := DefaultOptions()
	opts.MaxFixes = 1
	res, err := RunContext(context.Background(), data, nil, rules, opts)
	if err != nil {
		t.Fatalf("degraded run must complete, got %v", err)
	}
	if !res.Degraded || res.DegradeReason != "max-fixes" {
		t.Fatalf("Degraded = %v (%q), want true (max-fixes)", res.Degraded, res.DegradeReason)
	}
	if res.Rounds != 1 {
		t.Fatalf("cRepair ran %d rounds past an exhausted budget, want 1", res.Rounds)
	}
	if n := len(res.DeterministicFixes()); n != 2 {
		t.Fatalf("%d deterministic fixes, want the first round's 2", n)
	}
	if r, p := len(res.ReliableFixes()), len(res.PossibleFixes()); r+p != 0 {
		t.Fatalf("%d reliable and %d possible fixes after the budget ran out, want none", r, p)
	}
}

// TestCancelStopsBetweenRules pins the per-rule cancellation checks of the
// CRepair and HRepair rule loops: a cancel that fires inside a rule pass
// lets that pass finish, and no later rule of the round is applied. Armed
// to cancel at every apply hook, the injector counts each hook that ran,
// so the count must equal the phase's first nonempty rule pass, which a
// twin engine in the same state lists from its worklist.
func TestCancelStopsBetweenRules(t *testing.T) {
	phases := []struct {
		name  string
		phase int
		prep  func(*Engine) // brings a fresh engine to the phase
		run   func(*Engine)
	}{
		{"cRepair", phaseC, func(*Engine) {}, (*Engine).CRepair},
		{"hRepair", phaseH, func(e *Engine) { e.CRepair(); e.ERepair() }, (*Engine).HRepair},
	}
	opts := DefaultOptions()
	opts.Workers = 1
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			checked := 0
			for seed := int64(0); seed < 60; seed++ {
				in := genInstance(seed)
				twin := New(in.relation(nil), nil, in.rules, opts)
				ph.prep(twin)
				var passes []int // nonempty rule passes of the first round
				for ri, r := range twin.rules {
					n := 0
					if r.Kind == rule.VariableCFD {
						gs, _ := twin.work.groups(ph.phase, ri)
						n = len(gs)
					} else {
						n = len(twin.work.tuples(ph.phase, ri))
					}
					if n > 0 {
						passes = append(passes, n)
					}
				}
				if len(passes) < 2 {
					continue // no later rule for the check to skip
				}
				inj := fault.New(seed, fault.Rule{Site: fault.SiteApply, Kind: fault.Cancel, Rate: 1})
				ctx, cancel := context.WithCancel(context.Background())
				inj.OnCancel(cancel)
				e := NewContext(ctx, in.relation(nil), nil, in.rules, opts)
				ph.prep(e)
				e.fj = inj
				ph.run(e)
				cancel()
				if !errors.Is(e.fail, ErrCanceled) {
					t.Fatalf("seed %d: fail = %v, want ErrCanceled", seed, e.fail)
				}
				if got := inj.Fired(fault.Cancel); got != int64(passes[0]) {
					t.Fatalf("seed %d: %d apply hooks ran, want %d (the pass the cancel fired in; later passes %v)",
						seed, got, passes[0], passes[1:])
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no seed has two nonempty rule passes")
			}
		})
	}
}

// TestERepairStopsBetweenResolutions pins the check between eRepair's
// resolutions: once a resolution spends the MaxFixes budget, no further
// group is resolved. The corpus's confidences sit below η, so cRepair
// writes nothing and every fix comes from eRepair.
func TestERepairStopsBetweenResolutions(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 60; seed++ {
		in := genInstance(seed)
		free := New(in.relation(nil), nil, in.rules, DefaultOptions())
		free.CRepair()
		free.ERepair()
		if free.res.GroupsResolved < 2 {
			continue // nothing left for the check to stop
		}
		opts := DefaultOptions()
		opts.MaxFixes = 1
		e := New(in.relation(nil), nil, in.rules, opts)
		e.CRepair()
		if len(e.res.Fixes) != 0 {
			t.Fatalf("seed %d: cRepair wrote %d fixes under η", seed, len(e.res.Fixes))
		}
		e.ERepair()
		if e.res.GroupsResolved != 1 || e.degraded != "max-fixes" {
			t.Fatalf("seed %d: %d groups resolved (degraded %q), want 1 and max-fixes; the fault-free run resolves %d",
				seed, e.res.GroupsResolved, e.degraded, free.res.GroupsResolved)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no seed resolves two groups")
	}
}

// TestFanOutStopsClaimingOnCancel pins fanOut's per-claim cancellation
// check: task 0 cancels, every other task waits for the cancel, so each
// worker holds at most one task when it lands and then claims no more.
func TestFanOutStopsClaimingOnCancel(t *testing.T) {
	const tasks = 64
	for w := 1; w <= 8; w++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		got, err := fanOut(ctx, nil, "test", w, tasks, func(task int) int {
			ran.Add(1)
			if task == 0 {
				cancel()
			}
			<-ctx.Done()
			return task
		})
		cancel()
		if got != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers %d: fanOut = %v, %v; want nil, ErrCanceled", w, got, err)
		}
		if n := ran.Load(); n > int64(w) {
			t.Fatalf("workers %d: %d tasks ran, want at most one per worker once task 0 canceled", w, n)
		}
	}
}

// panicWorklist is a worklist whose group listing panics: a panic on the
// engine goroutine outside any rule pass or fan-out.
type panicWorklist struct{ worklist }

func (panicWorklist) groups(int, int) ([][]int, bool) { panic("worklist broke") }

// TestRunPhasePanicIsWorkerError pins runAll's containment of last resort:
// a panic that neither a rule pass's recover nor a fan-out task's catches
// comes back as a *WorkerError of phase "run" carrying the panic value,
// not as an untyped error. eRepair re-keys inline, so a panic injected at
// its seed site takes the same path at any worker count.
func TestRunPhasePanicIsWorkerError(t *testing.T) {
	in := genInstance(3) // every corpus instance has a variable CFD
	e := New(in.relation(nil), nil, in.rules, DefaultOptions())
	e.work = panicWorklist{e.work}
	res, err := e.runAll()
	var we *WorkerError
	if res != nil || !errors.As(err, &we) {
		t.Fatalf("runAll = %v, %v; want nil and a *WorkerError", res, err)
	}
	if we.Phase != "run" || we.Rule != "" || we.Item != -1 || we.Value != "worklist broke" {
		t.Fatalf("WorkerError = %+v, want phase run, no rule, item -1, the panic value", we)
	}

	opts := DefaultOptions()
	opts.Workers = 4
	opts.forceFanOut = true
	opts.Fault = fault.New(3, fault.Rule{Site: fault.SiteSeed, Kind: fault.Panic, Rate: 1})
	_, err = RunContext(context.Background(), in.relation(nil), nil, in.rules, opts)
	var inj *fault.Injected
	if !errors.As(err, &we) || we.Phase != "run" || we.Shard != -1 || !errors.As(err, &inj) {
		t.Fatalf("seed-site panic: err = %v, want a *WorkerError of phase run on the engine goroutine", err)
	}
}

// TestFanOutContract pins fanOut's own contract: results come back indexed
// by task and identical for any worker count, and a failure returns nil
// results with the lowest failing task's *WorkerError, else the typed
// cancellation.
func TestFanOutContract(t *testing.T) {
	const tasks = 40
	square := func(task int) string { return fmt.Sprintf("r%d", task*task) }
	want := make([]string, tasks)
	for i := range want {
		want[i] = square(i)
	}
	for w := 1; w <= 8; w++ {
		got, err := fanOut(context.Background(), nil, "test", w, tasks, square)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: fanOut = %v, %v; want %v", w, got, err, want)
		}

		got, err = fanOut(context.Background(), nil, "test", w, tasks, func(task int) string {
			if task == 7 || task == 23 {
				panic(fmt.Sprintf("task %d", task))
			}
			return square(task)
		})
		var we *WorkerError
		if got != nil || !errors.As(err, &we) || we.Phase != "test" || we.Item != 7 {
			t.Fatalf("workers %d: panicking tasks 7, 23: fanOut = %v, %v; want nil, WorkerError at item 7", w, got, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if got, err = fanOut(ctx, nil, "test", w, tasks, square); got != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers %d: canceled before the call: fanOut = %v, %v; want nil, ErrCanceled", w, got, err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		got, err = fanOut(ctx, nil, "test", w, tasks, func(task int) string {
			if task == 11 {
				cancel()
			}
			return square(task)
		})
		cancel()
		if got != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers %d: canceled by task 11: fanOut = %v, %v; want nil, ErrCanceled", w, got, err)
		}
	}
}

// TestFaultSweepFires sanity-checks the sweep itself: over the corpus, each
// armed kind actually fires somewhere, so a green property run cannot mean
// "the hooks never triggered". The forced-fan-out pass checks the
// scheduling site too. With default options the corpus, far under
// seqCutoff, runs every fan-out inline, so the scheduling site cannot fire
// there; TestFanOutWidthRule pins where the default fans out.
func TestFaultSweepFires(t *testing.T) {
	pool := DefaultOptions()
	pool.Workers = 4
	passes := []faultMode{{"seq", DefaultOptions()}, {"pool-default", pool}}
	for _, m := range faultModes() {
		if m.opts.Workers > 1 {
			passes = append(passes, m)
		}
	}
	for _, pass := range passes {
		pooled := pass.opts.Workers > 1
		fired := map[string]bool{}
		for seed := int64(0); seed < 40; seed++ {
			in := genInstance(seed)
			for _, cfg := range faultConfigs() {
				if cfg.pools && !pooled {
					continue
				}
				inj := fault.New(seed, cfg.rules...)
				ctx, cancel := context.WithCancel(context.Background())
				inj.OnCancel(cancel)
				opts := pass.opts
				opts.Fault = inj
				_, _ = RunContext(ctx, in.relation(nil), nil, in.rules, opts)
				cancel()
				for _, r := range cfg.rules {
					if inj.Fired(r.Kind) > 0 {
						fired[fmt.Sprintf("%s/%s", r.Site, r.Kind)] = true
					}
				}
			}
		}
		want := []string{"apply/panic", "seed/panic", "certify/panic", "apply/cancel", "apply/delay"}
		if pass.opts.forceFanOut {
			want = append(want, "sched/panic", "sched/cancel", "sched/delay")
		}
		for _, w := range want {
			if !fired[w] {
				t.Errorf("%s: fault %s never fired across the corpus; the sweep is not exercising it", pass.name, w)
			}
		}
	}
}

// TestFanOutWidthRule pins Engine.width through fault.SiteSched, which
// fires only on tasks a worker goroutine claims: armed to panic on every
// one, a run fails with a *WorkerError exactly when some fan-out reaches
// the workers. With Workers 4, a run under seqCutoff and a run at one P
// stay inline everywhere, certification included; a run over the cutoff
// with two Ps fans out, and the forceFanOut seam fans out regardless.
func TestFanOutWidthRule(t *testing.T) {
	small := genInstance(5)
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize = 2*seqCutoff, 20
	large := gen.Generate(cfg)
	// Runs never write their input, so one relation serves every case.
	smallData := small.relation(nil)
	run := func(data, master *relation.Relation, rules []rule.Rule, forced bool) error {
		opts := DefaultOptions()
		opts.Workers = 4
		opts.forceFanOut = forced
		opts.Fault = fault.New(1, fault.Rule{Site: fault.SiteSched, Kind: fault.Panic, Rate: 1})
		_, err := RunContext(context.Background(), data, master, rules, opts)
		return err
	}
	atProcs := func(n int, f func()) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
		f()
	}
	wantInline := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: err = %v, want every fan-out inline and no error", name, err)
		}
	}
	wantFanOut := func(name string, err error) {
		t.Helper()
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Errorf("%s: err = %v, want the *WorkerError of a worker-claimed task", name, err)
		}
	}
	if n := smallData.Len(); n >= seqCutoff {
		t.Fatalf("genInstance(5) holds %d tuples, not under seqCutoff", n)
	}
	atProcs(2, func() {
		wantInline("under the cutoff", run(smallData, nil, small.rules, false))
		wantFanOut("over the cutoff", run(large.Data, large.Master, large.Rules, false))
		wantFanOut("forced, under the cutoff", run(smallData, nil, small.rules, true))
	})
	atProcs(1, func() {
		wantInline("one P", run(large.Data, large.Master, large.Rules, false))
		wantFanOut("forced, one P", run(large.Data, large.Master, large.Rules, true))
	})
}

package clean

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/relation"
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
// sequential default, and the forced-pool configuration that pushes every
// nonempty worklist through the worker pool so the containment and rewind
// machinery in runParallel/fanOut is actually on the hook.
type faultMode struct {
	name string
	opts Options
}

func faultModes() []faultMode {
	seq := DefaultOptions()
	pool := DefaultOptions()
	pool.Workers = 4
	pool.SeqCutoff = -1
	return []faultMode{{"seq", seq}, {"pool", pool}}
}

// faultConfig is one armed injector setup of the sweep.
type faultConfig struct {
	name  string
	pools bool // pool-only sites: skip under the sequential mode
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
// property violation. The sweep runs both the sequential and the forced-pool
// engine; CI runs it under -race (the fault-sweep job).
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
// applier panic on the pool path surfaces as a *WorkerError naming the
// phase, the rule, and the work item, and unwraps to the injected fault.
func TestWorkerErrorCoordinates(t *testing.T) {
	in := genInstance(13)
	opts := DefaultOptions()
	opts.Workers = 4
	opts.SeqCutoff = -1
	opts.Fault = fault.New(13, fault.Rule{Site: fault.SiteApply, Kind: fault.Panic, Rate: 1})
	_, err := RunContext(context.Background(), in.relation(nil), nil, in.rules, opts)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	// The propagated failure names the phase, the rule and a worklist item.
	// Which items record failures before the abort flag drains the pool is
	// scheduling-dependent (the lowest-index choice is deterministic over
	// the recorded set, not over the schedule), so the item is asserted
	// present, not pinned to 0.
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

// TestFaultSweepFires sanity-checks the sweep itself: over the corpus, each
// armed kind actually fires somewhere, so a green property run cannot mean
// "the hooks never triggered". The pooled passes check the scheduling site
// too, both in the sweep's forced-fan-out mode and with the default cutoff.
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
		if pooled {
			want = append(want, "sched/panic", "sched/cancel", "sched/delay")
		}
		for _, w := range want {
			if !fired[w] {
				t.Errorf("%s: fault %s never fired across the corpus; the sweep is not exercising it", pass.name, w)
			}
		}
	}
}

package clean

import (
	"fmt"
	"testing"

	"repro/internal/cfd"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/rule"
)

// TestParallelWorkerSweep pins the worker-count independence of the
// parallel applier layer: every worker count — including 1, which must
// take the inline sequential path (no pool is built) — produces results
// identical to the sequential incremental engine, down to the work
// counters, on both the randomized corpus and the MD-heavy figure1
// workload.
func TestParallelWorkerSweep(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		opts := DefaultOptions()
		opts.Workers = workers
		// Force every nonempty worklist through the pool: the corpus
		// instances are a handful of tuples, far under DefaultSeqCutoff,
		// and the sweep must exercise the parallel path, not the inline
		// fast path.
		opts.SeqCutoff = -1
		for seed := int64(0); seed < 25; seed++ {
			in := genInstance(seed)
			seq := Run(in.relation(nil), nil, in.rules, DefaultOptions())
			par := Run(in.relation(nil), nil, in.rules, opts)
			if d := diffParallel(par, seq); d != "" {
				t.Fatalf("seed %d, %d workers: %s", seed, workers, d)
			}
			if workers == 1 && par.WorkerVisits != nil {
				t.Fatalf("1 worker must not build a pool, got WorkerVisits %v", par.WorkerVisits)
			}
		}
		data, master, rules := figure1(t)
		seq := Run(data, master, rules, DefaultOptions())
		data, master, rules = figure1(t)
		par := Run(data, master, rules, opts)
		if d := diffParallel(par, seq); d != "" {
			t.Fatalf("figure1, %d workers: %s", workers, d)
		}
	}
}

// TestParallelDeterminism runs the parallel engine repeatedly on the same
// instances: the goroutine interleavings of the propose step and the map
// iteration order underneath the appliers vary run to run, and none of it
// may show in the result — the commit merge and the total-order tie-breaks
// are the only places ordering can come from.
func TestParallelDeterminism(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.SeqCutoff = -1
	for seed := int64(0); seed < 20; seed++ {
		in := genInstance(seed)
		first := Run(in.relation(nil), nil, in.rules, opts)
		for rep := 1; rep < 6; rep++ {
			again := Run(in.relation(nil), nil, in.rules, opts)
			if d := diffParallel(again, first); d != "" {
				t.Fatalf("seed %d, repetition %d: parallel run not deterministic: %s", seed, rep, d)
			}
		}
	}
}

// TestHTargetTieBreakDeterminism pins hTarget's tie-breaks: its candidate
// loop visits values in first-appearance order, and only the strict total
// order of its comparison chain (confidence sum, count, master support,
// lexicographic) makes the choice independent of that order. Both tie
// levels — master support and lexicographic — are exercised many times,
// sequentially and in parallel mode, where worker scheduling varies too. The workload is the hrepairInput one:
// the k1/k2 conflict only materializes inside the HRepair fixpoint, after
// eRepair (which has its own tie-break, pinned separately) has finished.
func TestHTargetTieBreakDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.SeqCutoff = -1
		for rep := 0; rep < 30; rep++ {
			// Master-support tie-break: k1 and k2 tie on confidence and
			// count; the master value reachable through the MD blocking
			// index must beat the lexicographically smaller k1 every time.
			data, master, rules := hrepairInput(t, true)
			res := Run(data, master, rules, opts)
			for i := 0; i < 2; i++ {
				if got := res.Data.Tuples[i].Values[2]; got != "k2" {
					t.Fatalf("%d workers, rep %d: master tie-break chose %q, want k2", workers, rep, got)
				}
			}
			// Lexicographic tie-break: same tie without master data.
			data, _, rules = hrepairInput(t, false)
			res = Run(data, nil, rules, opts)
			if got := res.Data.Tuples[0].Values[2]; got != "k1" {
				t.Fatalf("%d workers, rep %d: lex tie-break chose %q, want k1", workers, rep, got)
			}
		}
	}
}

// TestResolveGroupTieBreakDeterminism pins eRepair's resolveGroup tie-break:
// on a full tie (equal count, equal confidence sum) the lexicographically
// smaller value must win, though the larger one appears first.
func TestResolveGroupTieBreakDeterminism(t *testing.T) {
	dschema := relation.NewSchema("R", "B", "C")
	rules := rule.Derive([]*cfd.CFD{cfd.FD("fd", dschema, []string{"B"}, "C")}, nil)
	for rep := 0; rep < 100; rep++ {
		data := relation.New(dschema)
		data.Append("b1", "x2")
		data.Append("b1", "x1")
		data.SetAllConf(0.5)
		res := Run(data, nil, rules, DefaultOptions())
		for _, tp := range res.Data.Tuples {
			if got := tp.Values[1]; got != "x1" {
				t.Fatalf("rep %d: resolveGroup tie chose %q, want x1", rep, got)
			}
		}
	}
}

// TestParallelOuterFixpoint reruns the outer-fixpoint regression with the
// pool on: a possible fix whose derived confidence reaches eta enables a
// deterministic rule on a later pass, and the parallel engine must follow
// the same pass structure (the budget and freeze state span passes).
func TestParallelOuterFixpoint(t *testing.T) {
	dschema := relation.NewSchema("R", "A", "B", "C")
	rules := rule.Derive([]*cfd.CFD{
		cfd.FD("fdAB", dschema, []string{"A"}, "B"),
		cfd.New("constBC", dschema, []string{"B"}, []string{"b1"}, "C", "c9"),
	}, nil)
	mk := func() *relation.Relation {
		data := relation.New(dschema)
		data.Append("a1", "b1", "c0")
		data.Append("a1", "b1", "c0")
		data.Append("a1", "b2", "c0")
		for _, tp := range data.Tuples {
			tp.Conf[0] = 0.9
			tp.Conf[1] = 0.5
			tp.Conf[2] = 0.5
		}
		return data
	}
	opts := DefaultOptions()
	opts.Workers = 4
	opts.SeqCutoff = -1
	seq := Run(mk(), nil, rules, DefaultOptions())
	par := Run(mk(), nil, rules, opts)
	if d := diffParallel(par, seq); d != "" {
		t.Fatalf("outer fixpoint diverges under the pool: %s", d)
	}
	if len(par.Unresolved) != 0 {
		t.Fatalf("pipeline left rules unresolved: %v", fmt.Sprint(par.Unresolved))
	}
}

// TestParallelStealHeavySweep is the adversarial determinism sweep for the
// work-stealing queues: gen's HotZipRate knob packs more than a third of
// the tuples into one zip, so the variable CFDs carry one giant LHS-equal
// group next to hundreds of tiny ones — the shape where the old chunk
// cursor stranded whole chunks behind the giant group and where stealing
// traffic is now maximal. Every worker count must still produce results
// byte-identical to the sequential engine, including the certified Report
// and all work counters; run under -race this also audits the queue
// transfer protocol itself.
func TestParallelStealHeavySweep(t *testing.T) {
	inst := gen.Generate(gen.Config{
		Tuples: 2000, MasterSize: 200, ErrorRate: 0.05,
		RuleFanout: 2, Seed: 11, HotZipRate: 0.6,
	})
	zipAttr := inst.Data.Schema.MustIndex("zip")
	counts := make(map[string]int)
	dominant := 0
	for _, tp := range inst.Data.Tuples {
		counts[tp.Values[zipAttr]]++
		if counts[tp.Values[zipAttr]] > dominant {
			dominant = counts[tp.Values[zipAttr]]
		}
	}
	if dominant < inst.Data.Len()/3 {
		t.Fatalf("HotZipRate produced no dominant group: biggest zip holds %d of %d tuples",
			dominant, inst.Data.Len())
	}
	seq := Run(inst.Data, inst.Master, inst.Rules, DefaultOptions())
	for _, workers := range []int{2, 3, 4, 8} {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.SeqCutoff = -1
		par := Run(inst.Data, inst.Master, inst.Rules, opts)
		if d := diffParallel(par, seq); d != "" {
			t.Fatalf("%d workers on the steal-heavy workload: %s", workers, d)
		}
	}
}

// benchmarkTinyRounds measures the whole pipeline on a tiny instance, the
// regime where fan-out overhead used to dominate. The pinned comparison is
// Workers4 against Workers1: with the sequential fast path every worklist
// runs inline, so the two must be within noise of each other, while
// Workers4Forced (cutoff disabled) shows what the fan-outs cost when they
// are forced onto work this small.
func benchmarkTinyRounds(b *testing.B, workers, cutoff int) {
	in := genInstance(3)
	opts := DefaultOptions()
	opts.Workers = workers
	opts.SeqCutoff = cutoff
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(in.relation(nil), nil, in.rules, opts)
	}
}

func BenchmarkTinyRoundsWorkers1(b *testing.B)       { benchmarkTinyRounds(b, 1, 0) }
func BenchmarkTinyRoundsWorkers4(b *testing.B)       { benchmarkTinyRounds(b, 4, 0) }
func BenchmarkTinyRoundsWorkers4Forced(b *testing.B) { benchmarkTinyRounds(b, 4, -1) }

package clean

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cfd"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/rule"
)

// benchInput builds a synthetic workload: dirty transactions whose city
// disagrees with the area code, whose street drifts within postal groups,
// and whose names match master records through the equality index.
func benchInput(b *testing.B, tuples, masterSize int) (*relation.Relation, *relation.Relation, []rule.Rule) {
	b.Helper()
	dschema := relation.NewSchema("R", "name", "AC", "city", "post", "St")
	mschema := relation.NewSchema("M", "name", "St")
	master := relation.New(mschema)
	for i := 0; i < masterSize; i++ {
		master.Append(fmt.Sprintf("name-%04d", i), fmt.Sprintf("st-%04d", i))
	}
	master.SetAllConf(1)
	data := relation.New(dschema)
	for i := 0; i < tuples; i++ {
		city := "Edi"
		if i%2 == 0 {
			city = "Ldn" // violates the constant CFD
		}
		st := fmt.Sprintf("st-%04d", i%masterSize)
		if i%3 == 0 {
			st = "st-dirty" // fixed via the MD match
		}
		data.Append(fmt.Sprintf("name-%04d", i%masterSize), "131", city,
			fmt.Sprintf("p-%03d", i%100), st)
	}
	data.SetAllConf(0.9)
	text := `
cfd AC=131 -> city=Edi
cfd post -> St
md name=name -> St=St
`
	cfds, mds, err := rule.ParseRules(dschema, mschema, text)
	if err != nil {
		b.Fatalf("ParseRules: %v", err)
	}
	return data, master, rule.Derive(cfds, mds)
}

// BenchmarkCRepair measures one full deterministic-repair fixpoint,
// including the per-iteration relation clone and index build done by New.
func BenchmarkCRepair(b *testing.B) {
	data, master, rules := benchInput(b, 2000, 500)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(data, master, rules, opts)
		e.CRepair()
	}
}

// BenchmarkERepair measures the entropy-based phase alone on a workload
// whose confidences sit below eta, so cRepair is inert and every
// variable-CFD conflict reaches the entropy-ordered group resolution.
func BenchmarkERepair(b *testing.B) {
	data, master, rules := benchInput(b, 2000, 500)
	data.SetAllConf(0.5)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(data, master, rules, opts)
		e.CRepair()
		b.StartTimer()
		e.ERepair()
	}
}

// BenchmarkRunIncremental measures the full pipeline with the delta-driven
// scheduler (sequential) on the 10k-tuple / 5%-dirty generator config — the
// headline number the CI gate tracks.
func BenchmarkRunIncremental(b *testing.B) {
	benchmarkRun(b, 1)
}

// BenchmarkRunParallel measures the delta-driven engine with its fan-outs
// at GOMAXPROCS workers on the same workload. On a single-core runner
// Engine.width runs every fan-out inline, so it measures the sequential
// path; compare it against BenchmarkRunIncremental on the same machine.
func BenchmarkRunParallel(b *testing.B) {
	benchmarkRun(b, 0)
}

func benchmarkRun(b *testing.B, workers int) {
	inst := gen.Generate(gen.DefaultConfig())
	opts := DefaultOptions()
	opts.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	gc := gcCycles()
	var visits int
	for i := 0; i < b.N; i++ {
		res := Run(inst.Data, inst.Master, inst.Rules, opts)
		visits = res.TotalVisits()
	}
	b.ReportMetric(float64(gcCycles()-gc)/float64(b.N), "gc-cycles/op")
	b.ReportMetric(float64(visits), "visits/run")
}

// gcCycles returns the number of garbage collections completed so far;
// the benchmarks report its delta per op as gc-cycles/op.
func gcCycles() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

// TestIncrementalVisitRatio is the acceptance bar of the delta-driven
// scheduler at the benchmark config: at 10k tuples / 5% dirty, the
// incremental engine must touch at least 5x fewer tuples than the
// full-rescan reference while producing an identical result.
func TestIncrementalVisitRatio(t *testing.T) {
	inst := gen.Generate(gen.DefaultConfig())
	inc, ref := runModes(inst.Data, inst.Master, inst.Rules, DefaultOptions())
	if d := diffResults(inc, ref); d != "" {
		t.Fatalf("engines disagree on the benchmark workload: %s", d)
	}
	iv, rv := inc.TotalVisits(), ref.TotalVisits()
	if iv == 0 || rv == 0 {
		t.Fatalf("visit counters empty: incremental %d, rescan %d", iv, rv)
	}
	if ratio := float64(rv) / float64(iv); ratio < 5 {
		t.Errorf("rescan/incremental visit ratio = %.2f (%d vs %d), want >= 5", ratio, rv, iv)
	}
	if len(inc.Fixes) == 0 {
		t.Error("benchmark workload produced no fixes; the generator is not exercising the engine")
	}
}

// BenchmarkHRepair measures the heuristic phase alone on the same
// below-eta workload: the constant-CFD violations survive cRepair and
// eRepair, so hRepair's violation fixpoint does all the city repairs.
func BenchmarkHRepair(b *testing.B) {
	data, master, rules := benchInput(b, 2000, 500)
	data.SetAllConf(0.5)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(data, master, rules, opts)
		e.CRepair()
		e.ERepair()
		b.StartTimer()
		e.HRepair()
	}
}

// BenchmarkGroupEntropy measures eRepair's keying cost: the entropy of
// every fd_zip_city group of the gen.DefaultConfig() instance, plus one
// 6,000-member group with thousands of distinct values, the shape that
// outgrows the linear scan.
func BenchmarkGroupEntropy(b *testing.B) {
	inst := gen.Generate(gen.DefaultConfig())
	e := New(inst.Data, inst.Master, inst.Rules, DefaultOptions())
	var ri int
	for k, r := range e.rules {
		if r.Name() == "fd_zip_city" {
			ri = k
		}
	}
	gs, _ := e.work.groups(phaseE, ri)
	col := e.codes[e.rules[ri].CFD.RHS]
	b.Run("zip-groups", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, g := range gs {
				groupEntropy(col, g)
			}
		}
	})
	big := inst.Data.Schema.MustIndex("name")
	codes := newCellCodes(rule.Derive([]*cfd.CFD{cfd.FD("fd", inst.Data.Schema, []string{"zip"}, "name")}, nil), inst.Data)
	members := identity(6000)
	b.Run("6000-distinct", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			groupEntropy(codes[big], members)
		}
	})
}

// BenchmarkGroupIndexWrites measures the scheduler's write path on the
// group indexes in the shape of a confidence-raising assert: one noteWrite
// per tuple to zip, the LHS of both FDs, and one to city, the RHS of one,
// over gen.DefaultConfig() — values unchanged, so no group moves and every
// call only re-derives the tuple's symbol and marks its groups dirty.
func BenchmarkGroupIndexWrites(b *testing.B) {
	inst := gen.Generate(gen.DefaultConfig())
	e := New(inst.Data, inst.Master, inst.Rules, DefaultOptions())
	s := e.work.(*scheduler)
	zip, city := e.data.Schema.MustIndex("zip"), e.data.Schema.MustIndex("city")
	b.ReportAllocs()
	for b.Loop() {
		for i, t := range e.data.Tuples {
			s.noteWrite(i, zip, t, false)
			s.noteWrite(i, city, t, false)
		}
	}
}

// TestRescanIdentityBenchShapes holds the delta scheduler to the rescan
// reference on the benchmark's two non-default batch shapes: master-heavy
// (as many master as data tuples, so blocking and certification carry the
// run) and skew-lowconf (one hot zip group, confidence below eta, and a
// master missing 60% of the providers, so eRepair and hRepair carry it).
func TestRescanIdentityBenchShapes(t *testing.T) {
	heavy := gen.DefaultConfig()
	heavy.Tuples, heavy.MasterSize = 4000, 4000
	skew := gen.DefaultConfig()
	skew.Tuples, skew.MasterSize = 2000, 500
	skew.HotZipRate, skew.ErrorRate, skew.StubbornRate, skew.Conf = 0.6, 0.1, 0.3, 0.6
	for _, shape := range []struct {
		name        string
		cfg         gen.Config
		masterShare float64 // leading fraction of the master rows kept
	}{{"master-heavy", heavy, 1}, {"skew-lowconf", skew, 0.4}} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := shape.cfg
			cfg.Seed = seed
			inst := gen.Generate(cfg)
			m := inst.Master
			master := &relation.Relation{Schema: m.Schema, Tuples: m.Tuples[:int(float64(m.Len())*shape.masterShare)]}
			inc, ref := runModes(inst.Data, master, inst.Rules, DefaultOptions())
			if d := diffResults(inc, ref); d != "" {
				t.Fatalf("%s seed %d: incremental and rescan engines disagree: %s", shape.name, seed, d)
			}
			if len(inc.Fixes) == 0 {
				t.Fatalf("%s seed %d: no fixes; the shape is not exercising the engine", shape.name, seed)
			}
		}
	}
}

// BenchmarkStreamUpdate measures one streaming update per iteration: an
// upsert or delete from a generated stream over the 2,000-tuple /
// 300-master generator instance, each a rebase that re-cleans and
// re-certifies the candidate base against the stream's shared indexes. The
// stream is replayed in order; when it runs out, a fresh stream engine is
// built outside the timer and the replay starts over. visits/op is the
// applier tuple visits of an update's re-run.
func BenchmarkStreamUpdate(b *testing.B) {
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize = 2000, 300
	inst := gen.Generate(cfg)
	ops := gen.GenerateUpdates(inst, gen.UpdateConfig{
		Updates: 300, DeleteRate: 0.15, AppendRate: 0.25, HotGroupRate: 0.2, Seed: cfg.Seed,
	})
	var e *Engine
	visits := 0
	b.ReportAllocs()
	b.ResetTimer()
	gc := gcCycles()
	for i := 0; i < b.N; i++ {
		u := ops[i%len(ops)]
		if i%len(ops) == 0 {
			b.StopTimer()
			setup := gcCycles()
			var err error
			if e, err = NewStream(inst.Data, inst.Master, inst.Rules, DefaultOptions()); err != nil {
				b.Fatalf("NewStream: %v", err)
			}
			gc += gcCycles() - setup // the initial run's collections are not an update's
			b.StartTimer()
		}
		var res *Result
		var err error
		if u.Delete {
			res, err = e.Delete(u.ID)
		} else {
			res, err = e.Upsert(u.ID, u.Values, u.Conf)
		}
		if err != nil {
			b.Fatalf("update %d (%+v): %v", i%len(ops), u, err)
		}
		visits += res.TotalVisits()
	}
	b.ReportMetric(float64(gcCycles()-gc)/float64(b.N), "gc-cycles/op")
	b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
}

package clean

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfd"
	"repro/internal/gen"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
)

// simInstance is one randomized dirty instance with master data and a
// similarity-only MD (no equality clause): the corpus leg that exercises the
// suffix-tree certify path. Names are short strings over a tiny alphabet, so
// edit-distance matches are frequent (many violating (t, s) pairs — enough
// to cross the per-rule report cap on dirtier seeds), and a few names are
// shorter than the edit threshold itself, defeating the LCS pigeonhole bound
// and forcing the checker's per-tuple full-scan fallback.
type simInstance struct {
	seed    int64
	editK   int
	dschema *relation.Schema
	rows    [][]string
	confs   [][]float64
	master  *relation.Relation
	rules   []rule.Rule
}

// genSimInstance derives a sim-MD instance deterministically from seed.
func genSimInstance(seed int64) *simInstance {
	rng := rand.New(rand.NewSource(seed ^ 0x51517e57))
	in := &simInstance{seed: seed, editK: 1 + rng.Intn(2)}
	in.dschema = relation.NewSchema("R", "A", "B", "name", "C")
	mschema := relation.NewSchema("M", "name", "C")

	// Name stems over a tiny alphabet; variants are a few random edits away,
	// so tuples block to several master candidates at once.
	alphabet := "abc"
	stem := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	stems := make([]string, 2+rng.Intn(3))
	for i := range stems {
		stems[i] = stem(4 + rng.Intn(6))
	}
	mutate := func(s string, ops int) string {
		b := []byte(s)
		for k := 0; k < ops && len(b) > 0; k++ {
			i := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0: // substitute
				b[i] = alphabet[rng.Intn(len(alphabet))]
			case 1: // insert
				b = append(b[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[i:]...)...)
			case 2: // delete
				b = append(b[:i], b[i+1:]...)
			}
		}
		return string(b)
	}
	name := func() string {
		switch rng.Intn(20) {
		case 0:
			return relation.Null // never matches a premise clause
		case 1, 2:
			// Shorter than editK: the LCS bound |v|/(K+1) is vacuous and
			// certification must fall back to scanning Dm for this tuple.
			return stem(1)[:1]
		default:
			return mutate(stems[rng.Intn(len(stems))], rng.Intn(4))
		}
	}
	domainC := []string{"c0", "c1", "c2"}

	// Dense seeds cluster every name around one stem with at most K edits,
	// so nearly every (tuple, master) pair matches: with well over 100
	// violating pairs for the single MD, they cross the per-rule report cap
	// and pin the truncation accounting of the blocked enumeration.
	dense := rng.Intn(8) == 0
	if dense {
		stems = stems[:1]
		name = func() string {
			return mutate(stems[0], rng.Intn(in.editK+1))
		}
	}

	in.master = relation.New(mschema)
	for j, n := 0, 2+rng.Intn(4); j < n; j++ {
		in.master.Append(name(), domainC[rng.Intn(len(domainC))])
	}
	in.master.SetAllConf(1)

	tuples := 4 + rng.Intn(57)
	if dense {
		tuples = 80 + rng.Intn(60)
	}
	for i := 0; i < tuples; i++ {
		row := []string{
			fmt.Sprintf("a%d", rng.Intn(3)),
			fmt.Sprintf("b%d", rng.Intn(3)),
			name(),
			domainC[rng.Intn(len(domainC))],
		}
		conf := make([]float64, len(row))
		for a := range conf {
			conf[a] = rng.Float64() * 0.75
		}
		in.rows = append(in.rows, row)
		in.confs = append(in.confs, conf)
	}

	var cfds []*cfd.CFD
	if rng.Intn(2) == 0 {
		cfds = append(cfds, cfd.FD("fdBC", in.dschema, []string{"B"}, "C"))
	}
	if rng.Intn(2) == 0 {
		cfds = append(cfds, cfd.New("constAC", in.dschema,
			[]string{"A"}, []string{"a0"}, "C", domainC[rng.Intn(len(domainC))]))
	}
	m := md.New("simMD", in.dschema, mschema,
		[]md.ClauseSpec{md.Sim("name", "name", similarity.EditWithin(in.editK))},
		[]md.PairSpec{{Data: "C", Master: "C"}})
	in.rules = rule.Derive(cfds, []*md.MD{m})
	return in
}

// data builds a fresh copy of the instance's data relation.
func (in *simInstance) data() *relation.Relation {
	d := relation.New(in.dschema)
	for i, row := range in.rows {
		t := d.Append(row...)
		copy(t.Conf, in.confs[i])
	}
	return d
}

// hasShortName reports whether some data tuple's name is short enough to
// defeat the LCS blocking bound (len <= K), i.e. whether this instance
// exercises the per-tuple full-scan fallback.
func (in *simInstance) hasShortName() bool {
	a := in.dschema.MustIndex("name")
	for _, row := range in.rows {
		if !relation.IsNull(row[a]) && len(row[a]) <= in.editK {
			return true
		}
	}
	return false
}

// diffReports returns a description of the first observable difference
// between two certification reports, or "" when they are byte-identical —
// rendering, materialized violations in order, truncation accounting, and
// the per-rule/per-kind counts.
func diffReports(got, want *Report) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("rendering differs:\ngot:  %s\nwant: %s", g, w)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		return fmt.Sprintf("violations differ:\ngot:  %v\nwant: %v", got.Violations, want.Violations)
	}
	if got.Truncated != want.Truncated {
		return fmt.Sprintf("Truncated: %d vs %d", got.Truncated, want.Truncated)
	}
	if !reflect.DeepEqual(got.byRule, want.byRule) {
		return fmt.Sprintf("byRule: %v vs %v", got.byRule, want.byRule)
	}
	if got.cfds != want.cfds || got.mds != want.mds {
		return fmt.Sprintf("kind counts: %d/%d vs %d/%d", got.cfds, got.mds, want.cfds, want.mds)
	}
	return ""
}

// TestCheckerBlockedOrderIdentity is the blocked-vs-scan pin of the
// suffix-tree certify path: over the 400-seed sim-MD corpus, the blocked
// enumeration (tree candidates, order-preserving ascending merge, per-tuple
// scan fallback) must produce a Report byte-identical to the naive
// |D|·|Dm| nested scan — same violations in the same (T, S) order, same
// details, same Truncated — while verifying no more pairs than the scan.
// A parallel leg certifies each instance again with 4 workers and must
// produce a Report deeply identical to the sequential one: each rule's
// task applies the per-rule cap itself, and the merge only concatenates.
// The corpus must cross the per-rule cap (truncation boundary) and include
// bound-defeating short names, or the pin is vacuous there.
func TestCheckerBlockedOrderIdentity(t *testing.T) {
	const seeds = 400
	sawTruncated, sawCapExact, sawShort := false, false, false
	for seed := int64(0); seed < seeds; seed++ {
		in := genSimInstance(seed)
		d := in.data()
		c := NewChecker(in.rules, in.master)
		blocked := c.Check(d)
		pc := NewChecker(in.rules, in.master)
		pc.workers = 4
		if par := pc.Check(d); !reflect.DeepEqual(par, blocked) {
			t.Fatalf("seed %d: 4-worker certification differs from sequential: %s (visits %d vs %d)",
				seed, diffReports(par, blocked), par.CertVisits, blocked.CertVisits)
		}
		c.noBlock = true
		naive := c.Check(d)
		if diff := diffReports(blocked, naive); diff != "" {
			t.Fatalf("seed %d: blocked and scan certification disagree: %s", seed, diff)
		}
		if blocked.CertVisits > naive.CertVisits {
			t.Fatalf("seed %d: blocked certification visited %d pairs, scan only %d",
				seed, blocked.CertVisits, naive.CertVisits)
		}
		if blocked.Truncated > 0 {
			sawTruncated = true
		}
		if n := blocked.NumMD(); n == maxStoredPerRule {
			sawCapExact = true
		}
		if in.hasShortName() {
			sawShort = true
		}
	}
	if !sawTruncated {
		t.Error("corpus never crossed the per-rule violation cap; the truncation boundary is untested")
	}
	_ = sawCapExact // exactly-at-cap is rare; crossing the cap is what matters
	if !sawShort {
		t.Error("corpus has no LCS-bound-defeating short names; the scan fallback is untested")
	}
}

// genLongNameInstance derives from seed a sim-MD instance shaped like gen's
// names: 10-24 bytes, all starting with "nm-", over a small alphabet, with
// K in {1, 2, 3}. Most values are long enough for certification's count
// filter (len(v) >= 2(K+3)); the prefix every value shares is the piece a
// one-piece enumeration would block on. Variants sit up to K+1 edits from
// a stem, so pairs land on both sides of the threshold.
func genLongNameInstance(seed int64) *simInstance {
	rng := rand.New(rand.NewSource(seed ^ 0x10a9e))
	in := &simInstance{seed: seed, editK: 1 + rng.Intn(3)}
	in.dschema = relation.NewSchema("R", "A", "B", "name", "C")
	mschema := relation.NewSchema("M", "name", "C")

	const alphabet = "abcd"
	stems := make([]string, 2+rng.Intn(6))
	for i := range stems {
		b := []byte("nm-")
		for n := 7 + rng.Intn(15); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		stems[i] = string(b)
	}
	name := func() string {
		if rng.Intn(20) == 0 {
			return relation.Null
		}
		b := []byte(stems[rng.Intn(len(stems))])
		for ops := rng.Intn(in.editK + 2); ops > 0; ops-- {
			i := rng.Intn(len(b))
			switch c := alphabet[rng.Intn(len(alphabet))]; rng.Intn(3) {
			case 0:
				b[i] = c
			case 1:
				b = append(b[:i], append([]byte{c}, b[i:]...)...)
			case 2:
				b = append(b[:i], b[i+1:]...)
			}
		}
		return string(b)
	}
	domainC := []string{"c0", "c1", "c2"}

	in.master = relation.New(mschema)
	for j, n := 0, 5+rng.Intn(36); j < n; j++ {
		in.master.Append(name(), domainC[rng.Intn(len(domainC))])
	}
	in.master.SetAllConf(1)
	for i, n := 0, 4+rng.Intn(57); i < n; i++ {
		row := []string{
			fmt.Sprintf("a%d", rng.Intn(3)),
			fmt.Sprintf("b%d", rng.Intn(3)),
			name(),
			domainC[rng.Intn(len(domainC))],
		}
		conf := make([]float64, len(row))
		for a := range conf {
			conf[a] = rng.Float64() * 0.75
		}
		in.rows = append(in.rows, row)
		in.confs = append(in.confs, conf)
	}
	m := md.New("simMD", in.dschema, mschema,
		[]md.ClauseSpec{md.Sim("name", "name", similarity.EditWithin(in.editK))},
		[]md.PairSpec{{Data: "C", Master: "C"}})
	in.rules = rule.Derive(nil, []*md.MD{m})
	return in
}

// TestCheckerLongNameIdentity is the count-filter leg of the blocked-vs-scan
// pin: over 400 seeds of gen-shaped long names, the blocked Report must be
// byte-identical to the naive scan's. At least half of the tuples must be
// served by the filter itself, or the leg would only re-test the short-value
// fallback.
func TestCheckerLongNameIdentity(t *testing.T) {
	const seeds = 400
	tuples, filtered := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		in := genLongNameInstance(seed)
		d := in.data()
		c := NewChecker(in.rules, in.master)
		blocked := c.Check(d)
		c.noBlock = true
		naive := c.Check(d)
		if diff := diffReports(blocked, naive); diff != "" {
			t.Fatalf("seed %d: blocked and scan certification disagree: %s", seed, diff)
		}
		if blocked.CertVisits > naive.CertVisits {
			t.Fatalf("seed %d: blocked certification visited %d pairs, scan only %d",
				seed, blocked.CertVisits, naive.CertVisits)
		}
		x := testMatcher(in.rules[0].MD, in.master, d)
		for _, tp := range d.Tuples {
			tuples++
			if _, ok := x.tree.AppendEditCandidates(nil, tp.Values[x.simData], x.simK); ok {
				filtered++
			}
		}
	}
	if 2*filtered < tuples {
		t.Errorf("the count filter served %d of %d tuples, want at least half", filtered, tuples)
	}
}

// TestCheckerParallelWorkerSweep pins the worker-count independence of the
// certification fan-out: for every worker count the parallel Check must
// produce a Report deeply identical to the sequential one — violations in
// rule order, truncation, certify visit counter, and the internal per-rule
// accounting. Run under -race, this is also what proves the per-rule
// passes share nothing but the indexes their own matchers probe.
func TestCheckerParallelWorkerSweep(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		in := genSimInstance(seed)
		d := in.data()
		base := NewChecker(in.rules, in.master).Check(d)
		for _, workers := range []int{2, 4, 8} {
			c := NewChecker(in.rules, in.master)
			c.workers = workers
			rep := c.Check(d)
			if diff := diffReports(rep, base); diff != "" {
				t.Fatalf("seed %d, %d workers: %s", seed, workers, diff)
			}
			if rep.CertVisits != base.CertVisits {
				t.Fatalf("seed %d, %d workers: certify visits %d != sequential %d",
					seed, workers, rep.CertVisits, base.CertVisits)
			}
			if !reflect.DeepEqual(rep, base) {
				t.Fatalf("seed %d, %d workers: reports not deeply equal", seed, workers)
			}
		}
	}
	// The MD-heavy figure1 workload, repeated to let goroutine scheduling
	// vary: the ordered merge is the only place report order can come from.
	data, master, rules := figure1(t)
	base := NewChecker(rules, master).Check(data)
	for rep := 0; rep < 20; rep++ {
		c := NewChecker(rules, master)
		c.workers = 4
		if diff := diffReports(c.Check(data), base); diff != "" {
			t.Fatalf("figure1 repetition %d: %s", rep, diff)
		}
	}
}

// TestPropertyIncrementalEquivalenceSimMD runs the three-way engine
// equivalence (full-rescan reference, sequential incremental, 4-worker
// parallel) over the sim-MD corpus: the suffix-tree matching and blocked
// certification paths the nil-master corpus of
// TestPropertyIncrementalEquivalence cannot reach.
func TestPropertyIncrementalEquivalenceSimMD(t *testing.T) {
	const seeds = 400
	popts := DefaultOptions()
	popts.Workers = 4
	// Force the corpus through the pool: see TestPropertyIncrementalEquivalence.
	popts.forceFanOut = true
	for seed := int64(0); seed < seeds; seed++ {
		in := genSimInstance(seed)
		inc, ref := runModes(in.data(), in.master, in.rules, DefaultOptions())
		if d := diffResults(inc, ref); d != "" {
			t.Fatalf("seed %d: incremental and rescan engines disagree: %s", seed, d)
		}
		par := Run(in.data(), in.master, in.rules, popts)
		if d := diffParallel(par, inc); d != "" {
			t.Fatalf("seed %d: parallel and sequential engines disagree: %s", seed, d)
		}
	}
}

// TestCertVisitsScaleFlat pins certification's blocking selectivity as
// master grows: on the dirty gen instance with |Dm| = |D|/10, certification
// pairs per tuple at 100k tuples stay within 1.25x of their value at 10k.
// Blocking on any one piece of a name makes the ratio grow with |Dm|,
// because every gen name shares its "nm-" prefix.
func TestCertVisitsScaleFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and certifies a 100k-tuple instance")
	}
	perTuple := func(tuples int) float64 {
		cfg := gen.DefaultConfig()
		cfg.Tuples, cfg.MasterSize = tuples, tuples/10
		inst := gen.Generate(cfg)
		rep := NewChecker(inst.Rules, inst.Master).Check(inst.Data)
		return float64(rep.CertVisits) / float64(tuples)
	}
	small, large := perTuple(10000), perTuple(100000)
	if large > 1.25*small {
		t.Fatalf("certification pairs per tuple grew from %.2f at 10k to %.2f at 100k, want at most 1.25x", small, large)
	}
}

// TestStandaloneCheckQueriesEachValueOnce pins the non-storing matcher's
// reuse of its own candidate lists: a standalone Checker starts from an
// empty memo, and its md_name_sim task must still ask the suffix array once
// per distinct name, not once per tuple, while storing nothing in the
// shared memo.
func TestStandaloneCheckQueriesEachValueOnce(t *testing.T) {
	inst := gen.Generate(gen.DefaultConfig())
	c := NewChecker(inst.Rules, inst.Master)
	ri := slices.IndexFunc(c.rules, func(r rule.Rule) bool { return r.Name() == "md_name_sim" })
	if ri < 0 || c.indexes[ri].tree == nil {
		t.Fatal("gen rules have no suffix-array MD md_name_sim")
	}
	ix := c.indexes[ri]
	x := newMatcher(ix, nil, false)
	c.checkRule(inst.Data, ri, x)
	names := make(map[string]bool)
	for _, tu := range inst.Data.Tuples {
		if v := tu.Values[ix.simData]; !relation.IsNull(v) {
			names[v] = true
		}
	}
	if len(x.fresh) != len(names) {
		t.Errorf("certifying md_name_sim computed %d candidate lists for %d distinct names", len(x.fresh), len(names))
	}
	c.Check(inst.Data)
	if n := len(ix.memo.cert); n != 0 {
		t.Errorf("a standalone Check stored %d candidate lists in the shared memo, want 0", n)
	}
}

// TestCertificationWritesNoRunState pins certification from the run's own
// state: over the 400-seed corpora with master data (the sim-MD corpus,
// whose indexes memoize, and the premise-writing corpus, whose equality
// indexes read premise columns) and the nil-master corpus, at workers 1, 2
// and 4 with every fan-out forced, finish must leave every index's lookup
// and candidate-list memo exactly as it found them — as the repair passes
// left them, or emptied, so that every list certification reads is a
// miss — and the
// Report it certifies from the engine's premise columns and memo must deep
// equal a standalone Checker's, which resolves columns of its own and
// starts from an empty memo.
func TestCertificationWritesNoRunState(t *testing.T) {
	type instance struct {
		data, master *relation.Relation
		rules        []rule.Rule
	}
	corpora := []struct {
		name string
		gen  func(seed int64) instance
	}{
		{"sim", func(seed int64) instance {
			in := genSimInstance(seed)
			return instance{in.data(), in.master, in.rules}
		}},
		{"premise", func(seed int64) instance {
			in := genPremiseInstance(seed)
			return instance{in.relation(nil), in.master, in.rules}
		}},
		{"plain", func(seed int64) instance {
			in := genInstance(seed)
			return instance{in.relation(nil), nil, in.rules}
		}},
	}
	memoed := 0
	for _, c := range corpora {
		name := c.name
		for seed := int64(0); seed < 400; seed++ {
			in := c.gen(seed)
			for _, workers := range []int{1, 2, 4} {
				opts := DefaultOptions()
				opts.Workers = workers
				opts.forceFanOut = true
				e := New(in.data, in.master, in.rules, opts)
				e.repair()
				if seed%2 == 1 {
					// Certify odd seeds from an emptied memo: every
					// candidate list is then a miss, which a storing
					// certification would write back.
					for _, ix := range e.indexes {
						if ix != nil && ix.memo != nil {
							clear(ix.memo.lookups)
							clear(ix.memo.cert)
						}
					}
				}
				sizes := func() (n [][2]int) {
					for _, ix := range e.indexes {
						if ix != nil && ix.memo != nil {
							n = append(n, [2]int{len(ix.memo.lookups), len(ix.memo.cert)})
						}
					}
					return n
				}
				before := sizes()
				res, err := e.finish()
				if err != nil {
					t.Fatalf("%s seed %d, %d workers: %v", name, seed, workers, err)
				}
				if after := sizes(); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s seed %d, %d workers: certification changed the memo sizes from %v to %v",
						name, seed, workers, before, after)
				}
				if len(before) > 0 {
					memoed++
				}
				if want := NewChecker(e.rules, in.master).Check(res.Data); !reflect.DeepEqual(res.Report, want) {
					t.Fatalf("%s seed %d, %d workers: engine certification differs from a standalone check: %s",
						name, seed, workers, diffReports(res.Report, want))
				}
			}
		}
	}
	if memoed == 0 {
		t.Fatal("no run had a memoizing index: the memo leg is vacuous")
	}
}

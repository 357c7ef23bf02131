package clean

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
)

// uncachedLookup is the reference for candidates and probe: a fresh block
// and verify, never consulting a memo.
func uncachedLookup(y *matcher, t *relation.Tuple, topL int) lookup {
	ids, scanned := y.block(t, topL)
	return lookup{ids: y.verify(t, ids), block: len(ids), scanned: scanned}
}

// uncachedCert is the reference for certCandidates: the untruncated
// suffix-array enumeration merged by mergeAscending, or the equality bucket.
func uncachedCert(y *matcher, t *relation.Tuple) ([]int, bool) {
	switch {
	case y.eqIndex != nil:
		return y.eqIndex[t.Key(y.eqDataAttrs)], true
	case y.tree == nil:
		return nil, false
	}
	v := t.Values[y.simData]
	if relation.IsNull(v) {
		return nil, true
	}
	minLen := len(v) / (y.simK + 1)
	if minLen < 1 {
		return nil, false
	}
	var lists [][]int
	for _, sid := range y.tree.AppendCommon(nil, v, minLen) {
		if l := y.treeIDs[sid]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	return mergeAscending(lists, nil), true
}

// memoCase is one MD over one instance for the memo equivalence checks.
type memoCase struct {
	name         string
	data, master *relation.Relation
	m            *md.MD
}

func memoCases() []memoCase {
	var cases []memoCase
	for seed := int64(1); seed <= 3; seed++ {
		cfg := gen.DefaultConfig()
		cfg.Tuples, cfg.MasterSize, cfg.Seed = 400, 80, seed
		inst := gen.Generate(cfg)
		for _, r := range inst.Rules {
			if r.Kind == rule.MatchMD {
				cases = append(cases, memoCase{r.Name(), inst.Data, inst.Master, r.MD})
			}
		}
		// A lone Jaro-Winkler clause has no index: the full-scan path.
		jw := md.New("md_name_jw", inst.Data.Schema, inst.Master.Schema,
			[]md.ClauseSpec{md.Sim("name", "name", similarity.JaroWinklerAtLeast(0.9))},
			[]md.PairSpec{{Data: "phone", Master: "phone"}})
		cases = append(cases, memoCase{jw.Name, inst.Data, inst.Master, jw})
	}
	for seed := int64(0); seed < 30; seed++ {
		in := genSimInstance(seed)
		for _, r := range in.rules {
			if r.Kind == rule.MatchMD {
				cases = append(cases, memoCase{r.Name(), in.data(), in.master, r.MD})
			}
		}
	}
	return cases
}

// checkAgainstUncached runs candidates, probe and certCandidates through x
// for every tuple of d and compares each with the uncached reference y,
// including the MatchStats increments a lookup must add, memo hit or not.
func checkAgainstUncached(t *testing.T, label string, x, y *matcher, d *relation.Relation, topL int) {
	t.Helper()
	for i, tp := range d.Tuples {
		want := uncachedLookup(y, tp, topL)
		before := x.stats
		got := x.candidates(tp, topL)
		if !slices.Equal(got, want.ids) {
			t.Fatalf("%s: t%d: candidates = %v, want %v", label, i, got, want.ids)
		}
		delta := x.stats
		delta.Lookups -= before.Lookups
		delta.Candidates -= before.Candidates
		delta.Verified -= before.Verified
		delta.FullScans -= before.FullScans
		wantDelta := MatchStats{Lookups: 1, Candidates: want.block, Verified: len(want.ids), MasterSize: before.MasterSize}
		if want.scanned {
			wantDelta.FullScans = 1
		}
		if delta != wantDelta {
			t.Fatalf("%s: t%d: stats delta = %+v, want %+v", label, i, delta, wantDelta)
		}
		if got := x.probe(tp, topL); !slices.Equal(got, want.ids) {
			t.Fatalf("%s: t%d: probe = %v, want %v", label, i, got, want.ids)
		}
		wantCert, wantOK := uncachedCert(y, tp)
		gotCert, gotOK := x.certCandidates(tp)
		if gotOK != wantOK || !slices.Equal(gotCert, wantCert) {
			t.Fatalf("%s: t%d: certCandidates = %v, %v, want %v, %v", label, i, gotCert, gotOK, wantCert, wantOK)
		}
	}
}

func memoSize(m *memo) int {
	return len(m.lookups) + len(m.cert)
}

// TestMemoAgreesWithUncachedLookups pins the memo's contract: every
// candidates, probe and certCandidates answer, and every MatchStats count,
// equals a fresh uncached block+verify and mergeAscending — on the base
// matcher (cold, then warm), on a fork before prefetch (every lookup a miss,
// the shared memo untouched) and on a fork after it (every key memoized).
func TestMemoAgreesWithUncachedLookups(t *testing.T) {
	topL := DefaultOptions().TopL
	for _, c := range memoCases() {
		y := newMatcher(c.m, c.master)
		x := newMatcher(c.m, c.master)
		x.bound(c.data.Len())
		checkAgainstUncached(t, c.name+" base cold", x, y, c.data, topL)
		checkAgainstUncached(t, c.name+" base warm", x, y, c.data, topL)
		if x.eqIndex != nil {
			if x.memo != nil {
				t.Fatalf("%s: an equality-index matcher must not memoize", c.name)
			}
			continue
		}

		z := newMatcher(c.m, c.master)
		z.bound(c.data.Len())
		checkAgainstUncached(t, c.name+" fork before prefetch", z.fork(), y, c.data, topL)
		if n := memoSize(z.memo); n != 0 {
			t.Fatalf("%s: a fork wrote %d entries into the shared memo", c.name, n)
		}
		ctx := context.Background()
		if err := z.prefetch(ctx, nil, 2, c.data, nil, false, topL); err != nil {
			t.Fatalf("%s: prefetch: %v", c.name, err)
		}
		if err := z.prefetch(ctx, nil, 2, c.data, nil, true, 0); err != nil {
			t.Fatalf("%s: cert prefetch: %v", c.name, err)
		}
		for i, tp := range c.data.Tuples {
			if _, ok := z.memo.lookups[tp.Key(z.lhsAttrs)]; !ok {
				t.Fatalf("%s: t%d: prefetch left its lookup unmemoized", c.name, i)
			}
			if v := tp.Values[max(z.simData, 0)]; z.tree != nil && !relation.IsNull(v) && len(v) > z.simK {
				if _, ok := z.memo.cert[v]; !ok {
					t.Fatalf("%s: t%d: prefetch left its certification list unmemoized", c.name, i)
				}
			}
		}
		n := memoSize(z.memo)
		checkAgainstUncached(t, c.name+" fork after prefetch", z.fork(), y, c.data, topL)
		if memoSize(z.memo) != n {
			t.Fatalf("%s: a fork after prefetch changed the memo", c.name)
		}
	}
}

// TestMemoBound pins the growth bound: a memo at its limit is cleared
// before the next entry goes in, and lookups stay exact across the clear.
func TestMemoBound(t *testing.T) {
	var c memoCase
	for _, cc := range memoCases() {
		if cc.m.Name == "md_name_sim" {
			c = cc
			break
		}
	}
	x, y := newMatcher(c.m, c.master), newMatcher(c.m, c.master)
	x.bound(c.data.Len())
	if want := 2 * (c.data.Len() + c.master.Len()); x.memo.limit != want {
		t.Fatalf("limit = %d, want 2(|D|+|Dm|) = %d", x.memo.limit, want)
	}
	x.memo.limit = 5
	checkAgainstUncached(t, "limit 5", x, y, c.data, DefaultOptions().TopL)
	if n := len(x.memo.lookups); n > 5 || n == 0 {
		t.Fatalf("%d lookup entries under a limit of 5", n)
	}
	if n := len(x.memo.cert); n > 5 || n == 0 {
		t.Fatalf("%d cert entries under a limit of 5", n)
	}

	// A prefetch whose keys would take the map past its limit clears it
	// first, so every key it stores survives for its pass.
	z := newMatcher(c.m, c.master)
	distinct := make(map[string]bool)
	for _, tp := range c.data.Tuples {
		distinct[tp.Key(z.lhsAttrs)] = true
	}
	z.memo.limit = len(distinct) + 1
	z.memo.putLookup("stale-1", lookup{})
	z.memo.putLookup("stale-2", lookup{})
	if err := z.prefetch(context.Background(), nil, 2, c.data, nil, false, DefaultOptions().TopL); err != nil {
		t.Fatalf("prefetch: %v", err)
	}
	if n := len(z.memo.lookups); n != len(distinct) {
		t.Fatalf("memo holds %d lookups after an overflowing prefetch, want its %d keys", n, len(distinct))
	}
}

// simRule returns the index of gen's similarity MD in rules.
func simRule(t *testing.T, rules []rule.Rule) int {
	t.Helper()
	for ri, r := range rules {
		if r.Name() == "md_name_sim" {
			return ri
		}
	}
	t.Fatal("no md_name_sim rule")
	return -1
}

// TestMemoConcurrentMisses has two fan-out workers miss the same value in
// one parallel phase: every tuple carries one name, and the shared memo is
// empty, so both workers' forks miss it while reading the memo. Run under
// -race, it checks the lock-free design: the answers and the summed
// statistics must be exact, and no fork may have written the memo. A
// prefetch then stores the one entry, and a second phase only hits it.
func TestMemoConcurrentMisses(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize = 600, 50
	inst := gen.Generate(cfg)
	data := inst.Data.Clone()
	a := data.Schema.MustIndex("name")
	name := inst.Master.Tuples[0].Values[inst.Master.Schema.MustIndex("name")]
	for _, tp := range data.Tuples {
		tp.Values[a] = name
	}
	opts := DefaultOptions()
	opts.Workers = 2
	e := New(data, inst.Master, inst.Rules, opts)
	ri := simRule(t, e.rules)
	x := e.matchers[ri]
	want := uncachedLookup(newMatcher(e.rules[ri].MD, inst.Master), data.Tuples[0], opts.TopL)

	phase := func(label string) {
		t.Helper()
		n := data.Len()
		got := make([][]int, n)
		forks := []*matcher{x.fork(), x.fork()}
		err := fanOut(context.Background(), nil, "test", len(forks), len(forks), func(w int) {
			for i := w * n / len(forks); i < (w+1)*n/len(forks); i++ {
				got[i] = forks[w].candidates(e.data.Tuples[i], opts.TopL)
			}
		})
		if err != nil {
			t.Fatalf("%s: fanOut: %v", label, err)
		}
		for i := range got {
			if !slices.Equal(got[i], want.ids) {
				t.Fatalf("%s: t%d: candidates = %v, want %v", label, i, got[i], want.ids)
			}
		}
		sum := MatchStats{MasterSize: inst.Master.Len()}
		for _, f := range forks {
			sum.Lookups += f.stats.Lookups
			sum.Candidates += f.stats.Candidates
			sum.Verified += f.stats.Verified
			sum.FullScans += f.stats.FullScans
		}
		wantStats := MatchStats{Lookups: n, Candidates: n * want.block, Verified: n * len(want.ids), MasterSize: inst.Master.Len()}
		if sum != wantStats {
			t.Fatalf("%s: summed stats = %+v, want %+v", label, sum, wantStats)
		}
	}
	phase("missing phase")
	if n := len(x.memo.lookups); n != 0 {
		t.Fatalf("forks wrote %d lookups into the shared memo", n)
	}
	if err := x.prefetch(context.Background(), nil, 2, e.data, e.allTupleIDs(), false, opts.TopL); err != nil {
		t.Fatalf("prefetch: %v", err)
	}
	if n := len(x.memo.lookups); n != 1 {
		t.Fatalf("shared memo holds %d lookups after prefetch, want 1", n)
	}
	phase("hitting phase")
}

// TestMemoSurvivesFailedUpdate injects a certification panic into a stream
// update that brings a new name: the update fails typed, the memo keeps the
// entries its round computed, and the committed Result — cells, Report,
// fixes and every counter — stays bit-unchanged. The retried update then
// matches a from-scratch run.
func TestMemoSurvivesFailedUpdate(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize = 500, 60
	inst := gen.Generate(cfg)
	for _, mode := range faultModes() {
		t.Run(mode.name, func(t *testing.T) {
			e, err := NewStream(inst.Data, inst.Master, inst.Rules, mode.opts)
			if err != nil {
				t.Fatalf("NewStream: %v", err)
			}
			ri := simRule(t, e.rules)
			mem := e.stream.protos[ri].memo
			lookups, certs := len(mem.lookups), len(mem.cert)

			res := e.Result()
			cells, rep := snapshot(res.Data), res.Report.String()
			fixes := slices.Clone(res.Fixes)
			match := make(map[string]MatchStats)
			apply := make(map[string]ApplyStats)
			for _, r := range e.rules {
				if s := res.Match[r.Name()]; s != nil {
					match[r.Name()] = *s
				}
				apply[r.Name()] = *res.Apply[r.Name()]
			}

			// A new provider too, so no equality MD repairs the name back.
			a := inst.Data.Schema.MustIndex("name")
			values := slices.Clone(inst.Data.Tuples[0].Values)
			values[a] = "qq" + values[a] + "zz"
			values[inst.Data.Schema.MustIndex("provider")] = "p-new"
			conf := slices.Clone(inst.Data.Tuples[0].Conf)
			e.opts.Fault = fault.New(1, fault.Rule{Site: fault.SiteCertify, Kind: fault.Panic, Rate: 1})
			_, err = e.Upsert(0, values, conf)
			e.opts.Fault = nil
			if !typedFailure(err) {
				t.Fatalf("faulted upsert: err = %v, want a typed failure", err)
			}

			if _, ok := mem.lookups[values[a]]; !ok || len(mem.lookups) <= lookups {
				t.Errorf("memo lost the failed round's lookups: %d entries (was %d), new name present: %v",
					len(mem.lookups), lookups, ok)
			}
			if _, ok := mem.cert[values[a]]; !ok || len(mem.cert) <= certs {
				t.Errorf("memo lost the failed round's certification entries: %d (was %d), new name present: %v",
					len(mem.cert), certs, ok)
			}
			if e.Result() != res || !reflect.DeepEqual(snapshot(res.Data), cells) || res.Report.String() != rep ||
				!reflect.DeepEqual(res.Fixes, fixes) {
				t.Fatal("failed update changed the committed Result")
			}
			for _, r := range e.rules {
				if s := res.Match[r.Name()]; s != nil && *s != match[r.Name()] {
					t.Fatalf("failed update moved %s's match counters: %+v, was %+v", r.Name(), *s, match[r.Name()])
				}
				if *res.Apply[r.Name()] != apply[r.Name()] {
					t.Fatalf("failed update moved %s's applier counters", r.Name())
				}
			}

			got, err := e.Upsert(0, values, conf)
			if err != nil {
				t.Fatalf("retried upsert: %v", err)
			}
			acc := inst.Data.Clone()
			gen.Update{ID: 0, Values: values, Conf: conf}.Apply(acc)
			if d := diffParallel(got, Run(acc, inst.Master, inst.Rules, mode.opts)); d != "" {
				t.Fatalf("retried upsert diverges from a from-scratch run: %s", d)
			}
		})
	}
}

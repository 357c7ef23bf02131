package clean

import (
	"context"
	"fmt"
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
// and verify, never consulting a memo or a premise column. The equality
// bucket is found by hashing t's projection and always verified. On the
// suffix-array path, blocking is computed from the master relation alone
// (closestValues), never from the suffix array.
func uncachedLookup(y *matcher, t *relation.Tuple, topL int) lookup {
	var ids []int
	var scanned bool
	switch {
	case y.buckets != nil:
		ids = eqBucket(y, t)
	case y.tree != nil:
		ids, scanned = closestValues(y.master, y.simMaster, y.simK, t.Values[y.simData], topL)
	default:
		ids, scanned = identity(y.master.Len()), true
	}
	return lookup{ids: y.verify(t, ids), block: len(ids), scanned: scanned}
}

// closestValues is repair blocking as docs/semantics.md states it, by a
// scan of every master value: keep the distinct non-null values of master
// attribute a within edit distance k of v, order them by distance and then
// first appearance in master, and expand the first topL to their master
// tuples in ascending order. A null v blocks nothing; a v of length <= k,
// which no piece bound covers, counts as a full scan.
func closestValues(master *relation.Relation, a, k int, v string, topL int) (ids []int, scanned bool) {
	if relation.IsNull(v) {
		return nil, false
	}
	type value struct {
		dist   int
		tuples []int
	}
	var values []*value // in first appearance order
	byName := make(map[string]*value)
	for j, s := range master.Tuples {
		u := s.Values[a]
		if relation.IsNull(u) {
			continue
		}
		x, ok := byName[u]
		if !ok {
			x = &value{dist: similarity.Levenshtein(v, u)}
			byName[u] = x
			values = append(values, x)
		}
		x.tuples = append(x.tuples, j)
	}
	values = slices.DeleteFunc(values, func(x *value) bool { return x.dist > k })
	slices.SortStableFunc(values, func(x, y *value) int { return x.dist - y.dist })
	for _, x := range values[:min(topL, len(values))] {
		ids = append(ids, x.tuples...)
	}
	return ids, len(v)/(k+1) < 1
}

// eqBucket is t's equality bucket, found by hashing its projection.
func eqBucket(y *matcher, t *relation.Tuple) []int {
	if id, ok := y.keys[t.Key(y.eqDataAttrs)]; ok {
		return y.buckets[id]
	}
	return nil
}

// uncachedCert is the reference for certCandidates: the suffix array's
// count-filtered id lists (or, for values too short to filter, its
// untruncated common-piece enumeration) appended and sorted, or the
// equality bucket.
func uncachedCert(y *matcher, t *relation.Tuple) ([]int, bool) {
	switch {
	case y.buckets != nil:
		return eqBucket(y, t), true
	case y.tree == nil:
		return nil, false
	}
	v := t.Values[y.simData]
	if relation.IsNull(v) {
		return nil, true
	}
	sids, ok := y.tree.AppendEditCandidates(nil, v, y.simK)
	if !ok {
		minLen := len(v) / (y.simK + 1)
		if minLen < 1 {
			return nil, false
		}
		sids = y.tree.AppendCommon(nil, v, minLen)
	}
	var ids []int
	for _, sid := range sids {
		ids = append(ids, y.treeIDs[sid]...)
	}
	slices.Sort(ids)
	return ids, true
}

// FuzzRepairBlocking checks repair blocking against its index-free
// reference (closestValues) on arbitrary short master values: packed holds
// the master names, each a length byte followed by that many bytes, and v
// is the probed data value. The suffix-array candidates, the count filter
// or the piece-bound fallback behind them, and the full scan of a value too
// short for either, must keep exactly the l closest values within K, with
// the same statistics, cold and then from the memo.
func FuzzRepairBlocking(f *testing.F) {
	f.Add("\x10abcdefghXXXXXXXX\x0aabcdeXghij", "abcdefghij", uint8(2), uint8(0))
	f.Add("\x0aXbcdefghiX\x0aabcdeXghij\x0aabcdefghij", "abcdefghij", uint8(2), uint8(31))
	f.Add("\x02ab\x02ba\x01a\x00\x02ab", "ab", uint8(3), uint8(1))
	f.Add("\x05aaaaa\x04aaaa\x06aaaaaa\x03aaa", "aaaaa", uint8(1), uint8(1))
	f.Add("\x03abc\x03abd\x03abe", "", uint8(1), uint8(2))
	f.Add("\x0cnm-abcdefghi\x0cnm-abcdefghj\x0cnm-zzzzzzzzz", "nm-abcdefgh", uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, packed, v string, k, l uint8) {
		if len(packed) > 512 || len(v) > 32 {
			t.Skip()
		}
		dschema := relation.NewSchema("R", "name", "code")
		mschema := relation.NewSchema("M", "name", "code")
		master := relation.New(mschema)
		for len(packed) > 0 {
			n := min(int(packed[0]), len(packed)-1)
			master.Append(packed[1:1+n], fmt.Sprint(master.Len()))
			packed = packed[1+n:]
		}
		data := relation.New(dschema)
		data.Append(v, "")
		m := md.New("psi", dschema, mschema,
			[]md.ClauseSpec{md.Sim("name", "name", similarity.EditWithin(int(k%4)))},
			[]md.PairSpec{{Data: "code", Master: "code"}})
		x, y := testMatcher(m, master, data), testMatcher(m, master, data)
		x.bound(data.Len())
		topL := int(l%8) + 1
		checkAgainstUncached(t, "cold", x, y, data, topL)
		checkAgainstUncached(t, "warm", x, y, data, topL)
	})
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
		// Equality premises over nulls in data and master: null buckets,
		// and a mixed premise whose buckets are verified.
		pin := genPremiseInstance(seed)
		for _, r := range pin.rules {
			if r.Kind == rule.MatchMD {
				cases = append(cases, memoCase{r.Name(), pin.relation(nil), pin.master, r.MD})
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
		// block does not dedupe: its ids are distinct only because it
		// measures each candidate value once and each master tuple is
		// listed under its one value.
		if ids, _ := y.block(tp, topL); len(ids) > 1 {
			seen := make(map[int]bool, len(ids))
			for _, j := range ids {
				if seen[j] {
					t.Fatalf("%s: t%d: block returned master tuple %d twice: %v", label, i, j, ids)
				}
				seen[j] = true
			}
		}
		before := x.stats
		got := x.candidates(i, tp, topL)
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
		if got := x.probe(i, tp, topL); !slices.Equal(got, want.ids) {
			t.Fatalf("%s: t%d: probe = %v, want %v", label, i, got, want.ids)
		}
		wantCert, wantOK := uncachedCert(y, tp)
		gotCert, gotOK := x.certCandidates(i, tp)
		if gotOK != wantOK || !slices.Equal(gotCert, wantCert) {
			t.Fatalf("%s: t%d: certCandidates = %v, %v, want %v, %v", label, i, gotCert, gotOK, wantCert, wantOK)
		}
	}
}

// testMatcher returns a storing matcher over a freshly built index of m,
// reading a premise column over d.
func testMatcher(m *md.MD, master, d *relation.Relation) *matcher {
	ix := newMDIndex(m, master, identity(master.Len()))
	return newMatcher(ix, columnOf(ix, d), true)
}

// columnOf returns the ids of ix's premise column over d, or nil when ix
// has no equality index.
func columnOf(ix *mdIndex, d *relation.Relation) []int32 {
	if ix.buckets == nil {
		return nil
	}
	return newPremCol(ix, d).ids
}

func memoSize(m *memo) int {
	return len(m.lookups) + len(m.cert)
}

// TestMemoAgreesWithUncachedLookups pins the memo's contract: every
// candidates, probe and certCandidates answer, and every MatchStats count,
// equals a fresh uncached block+verify and sorted enumeration — on the base
// matcher (cold, then warm), on a non-storing matcher before prefetch
// (every lookup a miss, the shared memo untouched) and on one after it
// (every key memoized).
func TestMemoAgreesWithUncachedLookups(t *testing.T) {
	topL := DefaultOptions().TopL
	for _, c := range memoCases() {
		y := testMatcher(c.m, c.master, c.data)
		x := testMatcher(c.m, c.master, c.data)
		x.bound(c.data.Len())
		checkAgainstUncached(t, c.name+" base cold", x, y, c.data, topL)
		checkAgainstUncached(t, c.name+" base warm", x, y, c.data, topL)
		if x.buckets != nil {
			if x.memo != nil {
				t.Fatalf("%s: an equality-index matcher must not memoize", c.name)
			}
			continue
		}

		z := testMatcher(c.m, c.master, c.data)
		z.bound(c.data.Len())
		checkAgainstUncached(t, c.name+" non-storing before prefetch", newMatcher(z.mdIndex, nil, false), y, c.data, topL)
		if n := memoSize(z.memo); n != 0 {
			t.Fatalf("%s: a non-storing matcher wrote %d entries into the shared memo", c.name, n)
		}
		ctx := context.Background()
		if err := z.prefetch(ctx, nil, 2, c.data, nil, topL); err != nil {
			t.Fatalf("%s: prefetch: %v", c.name, err)
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
		checkAgainstUncached(t, c.name+" non-storing after prefetch", newMatcher(z.mdIndex, nil, false), y, c.data, topL)
		if memoSize(z.memo) != n {
			t.Fatalf("%s: a non-storing matcher after prefetch changed the memo", c.name)
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
	x, y := testMatcher(c.m, c.master, c.data), testMatcher(c.m, c.master, c.data)
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
	z := testMatcher(c.m, c.master, c.data)
	distinct := make(map[string]bool)
	for _, tp := range c.data.Tuples {
		distinct[tp.Key(z.lhsAttrs)] = true
	}
	z.memo.limit = len(distinct) + 1
	z.memo.putLookup("stale-1", lookup{})
	z.memo.putLookup("stale-2", lookup{})
	if err := z.prefetch(context.Background(), nil, 2, c.data, nil, DefaultOptions().TopL); err != nil {
		t.Fatalf("prefetch: %v", err)
	}
	if n := len(z.memo.lookups); n != len(distinct) {
		t.Fatalf("memo holds %d lookups after an overflowing prefetch, want its %d keys", n, len(distinct))
	}
}

// TestRepairPrefetchSharesCandidateLists pins one candidate query per
// distinct value: a repair prefetch stores, beside its lookups, the
// candidate list it blocked each similarity value from, so the
// certification that follows reads every list from the memo, computes
// none and stores nothing.
func TestRepairPrefetchSharesCandidateLists(t *testing.T) {
	for _, c := range memoCases() {
		z := testMatcher(c.m, c.master, c.data)
		if z.tree == nil {
			continue
		}
		z.bound(c.data.Len())
		if err := z.prefetch(context.Background(), nil, 2, c.data, nil, DefaultOptions().TopL); err != nil {
			t.Fatalf("%s: prefetch: %v", c.name, err)
		}
		// Mark every stored list: a certification that recomputed a list
		// would return something other than its mark.
		mark := []int{-1}
		for i, tp := range c.data.Tuples {
			if v := tp.Values[z.simData]; !relation.IsNull(v) && len(v) > z.simK {
				if _, ok := z.memo.cert[v]; !ok {
					t.Fatalf("%s: t%d: the repair prefetch left %q's candidate list unmemoized", c.name, i, v)
				}
				z.memo.cert[v] = mark
			}
		}
		n := memoSize(z.memo)
		x := newMatcher(z.mdIndex, nil, false)
		for i, tp := range c.data.Tuples {
			if v := tp.Values[z.simData]; !relation.IsNull(v) && len(v) > z.simK {
				if ids, _ := x.certCandidates(i, tp); !slices.Equal(ids, mark) {
					t.Fatalf("%s: t%d: certification recomputed %q's candidate list", c.name, i, v)
				}
			}
		}
		if len(x.fresh) != 0 || memoSize(z.memo) != n {
			t.Fatalf("%s: certification computed %d lists and changed the memo from %d to %d entries",
				c.name, len(x.fresh), n, memoSize(z.memo))
		}
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
// empty, so both workers' non-storing matchers miss it while reading the
// memo. Run under -race, it checks the lock-free design: the answers and
// the summed statistics must be exact, and neither matcher may have
// written the memo. A prefetch then stores the one entry, and a second
// phase only hits it.
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
	want := uncachedLookup(testMatcher(e.rules[ri].MD, inst.Master, data), data.Tuples[0], opts.TopL)

	phase := func(label string) {
		t.Helper()
		n := data.Len()
		probes := []*matcher{newMatcher(x.mdIndex, nil, false), newMatcher(x.mdIndex, nil, false)}
		chunks, err := fanOut(context.Background(), nil, "test", len(probes), len(probes), func(w int) [][]int {
			var got [][]int
			for i := w * n / len(probes); i < (w+1)*n/len(probes); i++ {
				got = append(got, probes[w].candidates(i, e.data.Tuples[i], opts.TopL))
			}
			return got
		})
		if err != nil {
			t.Fatalf("%s: fanOut: %v", label, err)
		}
		got := slices.Concat(chunks...)
		for i := range got {
			if !slices.Equal(got[i], want.ids) {
				t.Fatalf("%s: t%d: candidates = %v, want %v", label, i, got[i], want.ids)
			}
		}
		sum := MatchStats{MasterSize: inst.Master.Len()}
		for _, f := range probes {
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
		t.Fatalf("non-storing matchers wrote %d lookups into the shared memo", n)
	}
	if err := x.prefetch(context.Background(), nil, 2, e.data, nil, opts.TopL); err != nil {
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
			mem := e.stream.indexes[ri].memo
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

package clean

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
)

// runModes runs the pipeline twice over identical clones of the instance —
// once with the delta-driven scheduler, once with the full-rescan reference
// — and returns both results. Workers is forced to 1 so the incremental
// result is the sequential engine's, whatever the host's GOMAXPROCS.
func runModes(data, master *relation.Relation, rules []rule.Rule, opts Options) (inc, ref *Result) {
	opts.Workers = 1
	return Run(data, master, rules, opts), runRescan(data, master, rules, opts)
}

// diffResults returns a description of the first observable difference
// between the two results, or "" when they are fix-for-fix identical. The
// work counters (Match, Apply) are excluded: differing is their purpose.
func diffResults(inc, ref *Result) string {
	if !reflect.DeepEqual(inc.Fixes, ref.Fixes) {
		return fmt.Sprintf("Fixes differ:\nincremental: %v\nrescan:      %v", inc.Fixes, ref.Fixes)
	}
	if inc.Asserts != ref.Asserts {
		return fmt.Sprintf("Asserts: %d vs %d", inc.Asserts, ref.Asserts)
	}
	if !reflect.DeepEqual(inc.Conflicts, ref.Conflicts) {
		return fmt.Sprintf("Conflicts differ:\nincremental: %v\nrescan:      %v", inc.Conflicts, ref.Conflicts)
	}
	if inc.GroupsResolved != ref.GroupsResolved {
		return fmt.Sprintf("GroupsResolved: %d vs %d", inc.GroupsResolved, ref.GroupsResolved)
	}
	if inc.Rounds != ref.Rounds || inc.HRounds != ref.HRounds {
		return fmt.Sprintf("rounds: cRepair %d vs %d, hRepair %d vs %d",
			inc.Rounds, ref.Rounds, inc.HRounds, ref.HRounds)
	}
	if !reflect.DeepEqual(inc.Resolved, ref.Resolved) || !reflect.DeepEqual(inc.Unresolved, ref.Unresolved) {
		return fmt.Sprintf("resolution status differs: %v/%v vs %v/%v",
			inc.Resolved, inc.Unresolved, ref.Resolved, ref.Unresolved)
	}
	if got, want := inc.Report.String(), ref.Report.String(); got != want {
		return fmt.Sprintf("Reports differ:\nincremental: %s\nrescan:      %s", got, want)
	}
	if inc.Report.CertVisits != ref.Report.CertVisits {
		// Both engines certify the same repaired relation through the same
		// blocked enumeration, so even this work counter must agree.
		return fmt.Sprintf("certify visits: %d vs %d", inc.Report.CertVisits, ref.Report.CertVisits)
	}
	for i, t := range inc.Data.Tuples {
		u := ref.Data.Tuples[i]
		for a := range t.Values {
			//det:ok floateq bit-for-bit cell identity across engines is the property under test
			if t.Values[a] != u.Values[a] || t.Conf[a] != u.Conf[a] || t.Marks[a] != u.Marks[a] {
				return fmt.Sprintf("cell t%d[%d]: (%q, %.3f, %v) vs (%q, %.3f, %v)",
					i, a, t.Values[a], t.Conf[a], t.Marks[a], u.Values[a], u.Conf[a], u.Marks[a])
			}
		}
	}
	return ""
}

// diffParallel compares a result with every fan-out forced onto workers
// against the sequential incremental result. The bar is stricter than
// diffResults: rule passes run inline over the same worklists either way,
// and the fan-outs only compute into per-task slots merged in task order,
// so even the work counters — per-rule applier visits, per-MD matcher
// statistics — must be identical, not just the fixes.
func diffParallel(par, seq *Result) string {
	if d := diffResults(par, seq); d != "" {
		return d
	}
	if !reflect.DeepEqual(par.Apply, seq.Apply) {
		return fmt.Sprintf("applier work counters differ:\nparallel:   %v\nsequential: %v",
			statsDump(par.Apply), statsDump(seq.Apply))
	}
	if !reflect.DeepEqual(par.Match, seq.Match) {
		return fmt.Sprintf("matcher statistics differ:\nparallel:   %v\nsequential: %v",
			par.Match, seq.Match)
	}
	return ""
}

func statsDump(m map[string]*ApplyStats) string {
	names := make([]string, 0, len(m))
	for name := range m { //det:ok maporder names are sorted before rendering
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%+v ", name, *m[name])
	}
	return b.String()
}

// TestPropertyIncrementalEquivalence is the correctness bar of the
// delta-driven scheduler and of the fan-outs beside it:
// over the seeded dirty corpus, the sequential incremental engine must
// produce fix-for-fix identical results to the full-rescan reference —
// same Fixes in the same order, same Asserts, Conflicts, group
// resolutions, round counts, certified Report, and final cell state — and
// the parallel engine (four workers) must match the sequential incremental
// engine down to the work counters. Run it under -race: the fan-outs
// (index builds, lookup prefetch, eRepair re-keying, certification) are
// the engine's only concurrency.
func TestPropertyIncrementalEquivalence(t *testing.T) {
	checkEngineIdentity(t, genInstance)
}

// TestPropertyIncrementalEquivalenceMultiLHS is the same bar over
// genMultiInstance's corpus, whose variable CFDs have two-attribute LHSs
// (one with a constant in its pattern): the group index keys those on
// interned code tuples, a path one-attribute LHSs never reach.
func TestPropertyIncrementalEquivalenceMultiLHS(t *testing.T) {
	checkEngineIdentity(t, genMultiInstance)
}

// checkEngineIdentity runs the rescan, sequential and forced-parallel
// engines over 400 seeds of a corpus and fails on the first difference.
func checkEngineIdentity(t *testing.T, gen func(int64) *propInstance) {
	const seeds = 400
	opts := DefaultOptions()
	opts.Workers = 4
	// Negative SeqCutoff forces the corpus — tiny by construction — through
	// fanOut's workers; with the default cutoff the fast path would run
	// everything inline and the sweep would prove nothing about them.
	opts.SeqCutoff = -1
	for seed := int64(0); seed < seeds; seed++ {
		in := gen(seed)
		inc, ref := runModes(in.relation(nil), nil, in.rules, DefaultOptions())
		if d := diffResults(inc, ref); d != "" {
			t.Fatalf("seed %d: incremental and rescan engines disagree: %s", seed, d)
		}
		par := Run(in.relation(nil), nil, in.rules, opts)
		if d := diffParallel(par, inc); d != "" {
			t.Fatalf("seed %d: parallel and sequential engines disagree: %s", seed, d)
		}
	}
}

// TestIncrementalEquivalenceWithMaster covers the MD path the randomized
// corpus lacks: the Figure-1 workload exercises equality- and suffix-tree
// blocking, frozen-cell conflicts and the outer Run fixpoint in all three
// modes.
func TestIncrementalEquivalenceWithMaster(t *testing.T) {
	data, master, rules := figure1(t)
	inc, ref := runModes(data, master, rules, DefaultOptions())
	if d := diffResults(inc, ref); d != "" {
		t.Fatalf("incremental and rescan engines disagree on figure1: %s", d)
	}
	if inc.TotalVisits() >= ref.TotalVisits() {
		t.Errorf("incremental visits %d not below rescan visits %d",
			inc.TotalVisits(), ref.TotalVisits())
	}
	opts := DefaultOptions()
	opts.Workers = 4
	opts.SeqCutoff = -1 // figure1 is tiny: bypass the inline fast path
	data, master, rules = figure1(t)
	par := Run(data, master, rules, opts)
	if d := diffParallel(par, inc); d != "" {
		t.Fatalf("parallel and sequential engines disagree on figure1: %s", d)
	}
}

// TestDeltaOnlyRefiresReadingRules pins the reverse dependency map: after
// the first round, a fix to attribute A re-enqueues work only for the
// rules whose premise or conclusion reads A — a rule over disjoint
// attributes must not be visited again.
func TestDeltaOnlyRefiresReadingRules(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B", "C", "D")
	rules := rule.Derive([]*cfd.CFD{
		cfd.FD("fdAB", schema, []string{"A"}, "B"),
		cfd.FD("fdCD", schema, []string{"C"}, "D"),
	}, nil)
	data := relation.New(schema)
	data.Append("a1", "b1", "c1", "d1")
	data.Append("a1", "b1", "c1", "d1")
	data.Append("a2", "b2", "c2", "d2")
	data.SetAllConf(0.9)

	e := New(data, nil, rules, DefaultOptions())
	e.CRepair() // first round: every rule visits everything
	ab, cd := *e.res.Apply["fdAB"], *e.res.Apply["fdCD"]

	// A delta write to A moves tuple 0 into a new group of fdAB. Only fdAB
	// reads A, so only fdAB may be handed work by the next CRepair.
	e.write(0, schema.MustIndex("A"), "a2", 0.9, relation.FixDeterministic, "delta")
	e.CRepair()

	if got := e.res.Apply["fdAB"].CTuples; got <= ab.CTuples {
		t.Errorf("fdAB visits stayed at %d after a write to A; want re-fired", got)
	}
	if got := e.res.Apply["fdCD"]; got.CTuples != cd.CTuples || got.CGroups != cd.CGroups {
		t.Errorf("fdCD visits changed from %+v to %+v after a write to A; must not re-fire", cd, *got)
	}
}

// TestFirstVisitBillsEverything pins the seeding contract the worklists
// own: on a fresh delta engine the first cRepair round visits everything —
// each per-tuple rule every tuple, each variable CFD every cfd.Groups group
// — and, when nothing fires, a second CRepair visits nothing. The rescan
// reference bills the same first visit and repeats it on every call.
func TestFirstVisitBillsEverything(t *testing.T) {
	dschema := relation.NewSchema("R", "A", "B", "C", "D")
	mschema := relation.NewSchema("M", "A", "C")
	master := relation.New(mschema)
	master.Append("a1", "c9")
	master.Append("a2", "c2")
	master.SetAllConf(1)
	fd := cfd.FD("fd", dschema, []string{"B"}, "C")
	rules := rule.Derive([]*cfd.CFD{
		cfd.New("phi", dschema, []string{"B"}, []string{"b1"}, "D", "d1"),
		fd,
	}, []*md.MD{md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Eq("A", "A")},
		[]md.PairSpec{{Data: "C", Master: "C"}})})
	data := relation.New(dschema)
	data.Append("a1", "b1", "c1", "d0")
	data.Append("a2", "b1", "c2", "d1")
	data.Append("a3", "b2", "c1", "d1")
	data.Append("a1", "b2", "c3", "d2")
	data.Append("a4", "b3", "c1", "d1")
	data.SetAllConf(0.5) // below eta: no rule fires, nothing is written

	groups := cfd.Groups(data, fd)
	if len(groups) != 3 {
		t.Fatalf("instance has %d fd groups, want 3", len(groups))
	}
	members := 0
	for _, g := range groups {
		members += len(g.Members)
	}
	first := []struct {
		rule  string
		stats ApplyStats
	}{
		{"phi", ApplyStats{CTuples: data.Len()}},
		{"fd", ApplyStats{CTuples: members, CGroups: len(groups)}},
		{"psi", ApplyStats{CTuples: data.Len()}},
	}
	for _, rescan := range []bool{false, true} {
		build := New
		if rescan {
			build = newRescanEngine
		}
		e := build(data, master, rules, DefaultOptions())
		for call := 1; call <= 2; call++ {
			e.CRepair()
			visits := call // the rescan reference repeats the first visit
			if !rescan {
				visits = 1 // the delta scheduler adds nothing after it
			}
			for _, f := range first {
				want := ApplyStats{CTuples: visits * f.stats.CTuples, CGroups: visits * f.stats.CGroups}
				if got := *e.res.Apply[f.rule]; got != want {
					t.Errorf("rescan=%v, CRepair call %d: %s billed %+v, want %+v", rescan, call, f.rule, got, want)
				}
			}
		}
		if len(e.res.Fixes) != 0 || e.res.Asserts != 0 {
			t.Fatalf("rescan=%v: %d fixes, %d asserts below eta; the instance must stay quiet",
				rescan, len(e.res.Fixes), e.res.Asserts)
		}
	}
}

// TestMasterTieBreakReadsReenqueue pins the scheduler's indirect hRepair
// dependency: hTarget breaks ties by master-data support, probing group
// members through the MD premise — so a write to an MD premise attribute
// must re-enqueue the member's variable-CFD group for the hRepair consumer
// even though the attribute is in neither the CFD's LHS nor its RHS.
func TestMasterTieBreakReadsReenqueue(t *testing.T) {
	dschema := relation.NewSchema("R", "A", "B", "C")
	mschema := relation.NewSchema("M", "A", "C")
	master := relation.New(mschema)
	master.Append("a1", "c1")
	master.SetAllConf(1)
	m := md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Eq("A", "A")},
		[]md.PairSpec{{Data: "C", Master: "C"}})
	rules := rule.Derive([]*cfd.CFD{cfd.FD("fd", dschema, []string{"B"}, "C")}, []*md.MD{m})

	data := relation.New(dschema)
	data.Append("a0", "b", "c1")
	data.Append("a0", "b", "c2")
	data.SetAllConf(0.5) // below eta: nothing freezes, groups stay put

	e := New(data, master, rules, DefaultOptions())
	e.CRepair() // first round; no writes at conf 0.5
	var fdIdx int
	for ri, r := range e.rules {
		if r.Kind == rule.VariableCFD {
			fdIdx = ri
		}
	}
	gi := e.work.(*scheduler).gidx[fdIdx]
	gi.dirty[phaseH].clear() // drop any pending marks

	// A is read only by the MD premise — and, transitively, by the fd's
	// hRepair tie-break. Writing it must H-dirty tuple 0's group of fd.
	e.write(0, dschema.MustIndex("A"), "a1", 0.9, relation.FixDeterministic, "test")
	sym := int(gi.key[0])
	if sym < 0 || gi.groups[sym].key != "b" {
		t.Fatalf("tuple 0 sits in group %d, want the fd group \"b\"", sym)
	}
	if h := gi.dirty[phaseH].take(); !slices.Equal(h, []int{sym}) {
		t.Fatalf("write to MD premise attr A H-dirtied groups %v, want [%d]", h, sym)
	}
	if c := gi.dirty[phaseC].take(); slices.Contains(c, sym) {
		t.Errorf("write to A must not C-dirty the fd group: cRepair never reads master suggestions")
	}
}

// TestCheckerMDBlockingIsExact pins the Checker's equality-blocked MD
// certification against the naive nested scan: same violating pairs, same
// (T, S) order, on a dirty instance where premises mix equality and
// similarity clauses.
func TestCheckerMDBlockingIsExact(t *testing.T) {
	data, master, rules := figure1(t)
	// Check the dirty input directly (not a repair) so violations exist.
	c := NewChecker(rules, master)
	for ri, r := range rules {
		if r.Kind != rule.MatchMD {
			continue
		}
		var blocked []md.Violation
		visited := 0
		c.visitMDViolationsRange(data, r.MD, c.matchers[ri], 0, data.Len(), &visited, func(v md.Violation) bool {
			blocked = append(blocked, v)
			return true
		})
		naive := md.Violations(data, master, r.MD)
		if !reflect.DeepEqual(blocked, naive) {
			t.Errorf("%s: blocked enumeration %v != naive %v", r.Name(), blocked, naive)
		}
		if len(naive) == 0 {
			t.Errorf("%s: dirty figure1 input has no MD violations; test is vacuous", r.Name())
		}
		if scan := data.Len() * master.Len(); visited >= scan {
			t.Errorf("%s: blocked certification visited %d pairs, not below the %d-pair scan", r.Name(), visited, scan)
		}
	}
}

// TestGroupIndexStaysExact is the paranoia check behind the scheduler: after
// a full pipeline run, every variable-CFD group index must agree exactly —
// keys, members, order — with cfd.Groups recomputed from the final relation.
// The corpus covers one-attribute LHSs (genInstance) and the interned code
// tuples of two-attribute ones, constant LHS patterns included
// (genMultiInstance).
func TestGroupIndexStaysExact(t *testing.T) {
	for _, c := range []struct {
		name  string
		gen   func(int64) *propInstance
		seeds int64
	}{{"single", genInstance, 50}, {"multi", genMultiInstance, 400}} {
		for seed := int64(0); seed < c.seeds; seed++ {
			in := c.gen(seed)
			e := New(in.relation(nil), nil, in.rules, DefaultOptions())
			e.CRepair()
			e.ERepair()
			e.HRepair()
			for ri, r := range e.rules {
				gi := e.work.(*scheduler).gidx[ri]
				if gi == nil {
					continue
				}
				live := make(map[string]*igroup)
				for sym, g := range gi.groups {
					if g == nil || len(g.members) == 0 {
						continue
					}
					for _, i := range g.members {
						if int(gi.key[i]) != sym {
							t.Fatalf("%s seed %d rule %s: t%d listed in group %q but keyed %d",
								c.name, seed, r.Name(), i, g.key, gi.key[i])
						}
					}
					live[g.key] = g
				}
				want := cfd.Groups(e.data, r.CFD)
				if len(live) != len(want) {
					t.Fatalf("%s seed %d rule %s: index has %d groups, relation has %d",
						c.name, seed, r.Name(), len(live), len(want))
				}
				for _, wg := range want {
					if g := live[wg.Key]; g == nil || !reflect.DeepEqual(g.members, wg.Members) {
						t.Fatalf("%s seed %d rule %s group %q: index members %v, want %v",
							c.name, seed, r.Name(), wg.Key, g, wg.Members)
					}
				}
			}
		}
	}
}

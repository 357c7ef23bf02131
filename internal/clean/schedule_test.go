package clean

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cfd"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
)

// TestDirtySetMatchesReference drives random mark/take/clear sequences
// through the bitset dirty set and a map-plus-sort reference, on sizes
// around the 64-bit word boundaries. Marks land on a word's last and next
// bit (63, 64) and on the last tuple n-1 as often as on random ones, and
// every sequence marks before its first take, which must still return the
// start state's identity listing.
func TestDirtySetMatchesReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			all := identity(n)
			s := newDirtySet(all)
			refAll, ref := true, make(map[int]bool)
			edges := []int{0, 63, 64, n - 1}
			mark := func() {
				i := rng.Intn(n)
				if k := rng.Intn(2 * len(edges)); k < len(edges) && edges[k] < n {
					i = edges[k]
				}
				s.mark(i)
				ref[i] = true
			}
			for k := rng.Intn(4); k >= 0; k-- {
				mark()
			}
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(10); {
				case op == 0:
					s.clear()
					ref = make(map[int]bool)
				case op < 3 || step == 0:
					var want []int
					if refAll {
						want = all
					} else {
						for i := range ref { //det:ok maporder the keys are sorted below
							want = append(want, i)
						}
						sort.Ints(want)
					}
					refAll, ref = false, make(map[int]bool)
					if got := s.take(); !slices.Equal(got, want) {
						t.Fatalf("n=%d seed=%d step %d: take = %v, want %v", n, seed, step, got, want)
					}
				default:
					mark()
				}
			}
		}
	}
}

// wakeEngine returns a delta engine over a consistent instance below eta,
// after one pass of every phase: phi (A = a1 -> B = b1), fd (A -> C) and
// psi (A matches master A -> D) all read A in their premise, nothing fires,
// and every worklist is drained, so any later visit was woken by the
// test's own writes. t2 sits outside phi's pattern.
func wakeEngine(t *testing.T) *Engine {
	t.Helper()
	dschema := relation.NewSchema("R", "A", "B", "C", "D")
	mschema := relation.NewSchema("M", "A", "D")
	master := relation.New(mschema)
	master.Append("a1", "d1")
	master.SetAllConf(1)
	rules := rule.Derive([]*cfd.CFD{
		cfd.New("phi", dschema, []string{"A"}, []string{"a1"}, "B", "b1"),
		cfd.FD("fd", dschema, []string{"A"}, "C"),
	}, []*md.MD{md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Eq("A", "A")},
		[]md.PairSpec{{Data: "D", Master: "D"}})})
	data := relation.New(dschema)
	data.Append("a1", "b1", "c1", "d1")
	data.Append("a1", "b1", "c1", "d1")
	data.Append("a2", "b2", "c1", "d2")
	data.SetAllConf(0.5)
	e := New(data, master, rules, DefaultOptions())
	wakePass(e)
	if len(e.res.Fixes) != 0 || e.res.Asserts != 0 || len(e.res.Conflicts) != 0 {
		t.Fatalf("the wake instance must stay quiet: %v, %d asserts, %v", e.res.Fixes, e.res.Asserts, e.res.Conflicts)
	}
	return e
}

// wakePass runs one cRepair, eRepair and hRepair call and returns the
// visits each rule was billed for in them, leaving out rules billed none.
func wakePass(e *Engine) map[string]ApplyStats {
	before := make(map[string]ApplyStats)
	for name, s := range e.res.Apply { //det:ok maporder copies every entry, order-free
		before[name] = *s
	}
	e.CRepair()
	e.ERepair()
	e.HRepair()
	out := make(map[string]ApplyStats)
	for name, s := range e.res.Apply { //det:ok maporder fills a map, order-free
		b := before[name]
		if d := (ApplyStats{s.CTuples - b.CTuples, s.CGroups - b.CGroups, s.ETuples - b.ETuples, s.HTuples - b.HTuples}); d != (ApplyStats{}) {
			out[name] = d
		}
	}
	return out
}

// TestFreezeWakesOnlyConclusionReaders pins the scheduler's freeze rule:
// an assert that leaves a cell's value and confidence as they were changes
// only its mark, so it wakes only hRepair's group pass of the variable
// CFDs concluding on the attribute — a premise cell's freeze, and a
// constant CFD's conclusion freeze, wake nothing — while an assert that
// raises the confidence wakes every reader, since premise trust reads it.
func TestFreezeWakesOnlyConclusionReaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		i    int
		attr string
		conf float64
		want map[string]ApplyStats
	}{
		{"freeze premise t0[A]", 0, "A", 0.5, map[string]ApplyStats{}},
		{"freeze conclusion t0[B]", 0, "B", 0.5, map[string]ApplyStats{}},
		{"freeze conclusion t0[C]", 0, "C", 0.5, map[string]ApplyStats{
			"fd": {HTuples: 2},
		}},
		{"raise premise t0[A]", 0, "A", 0.6, map[string]ApplyStats{
			"phi": {CTuples: 1, HTuples: 1},
			"fd":  {CTuples: 2, CGroups: 1, ETuples: 2, HTuples: 2},
			"psi": {CTuples: 1},
		}},
	} {
		e := wakeEngine(t)
		if e.assert(tc.i, e.data.Schema.MustIndex(tc.attr), tc.conf) != 1 {
			t.Fatalf("%s: the assert changed nothing", tc.name)
		}
		if got := wakePass(e); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: the next pass billed %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFreezeRetargetsHRepairGroup is the rescan-equivalence case for a
// freeze's conclusion wake-up. hRepair leaves fd's group a1 standing with
// two frozen values, v (t0) and w (t1), keeps v and fails to retract t1.
// In the next pass eRepair's write t2[C] = c1 brings t2 into phi1, whose
// assert freezes t2[B] = w without raising its confidence. That freeze
// makes w the plurality frozen value, so hRepair must see the group again
// and retract t0 instead: a scheduler whose freezes woke no rule would
// leave t0[A] as it is.
func TestFreezeRetargetsHRepairGroup(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B", "C", "D")
	rules := rule.Derive([]*cfd.CFD{
		cfd.New("phi0", schema, []string{"C"}, []string{"c0"}, "B", "v"),
		cfd.New("phi1", schema, []string{"C"}, []string{"c1"}, "B", "w"),
		cfd.FD("fd", schema, []string{"A"}, "B"),
		cfd.FD("fd2", schema, []string{"D"}, "C"),
	}, nil)
	data := relation.New(schema)
	data.Append("a1", "v", "c0", "d0")
	data.Append("a1", "w", "c1", "d9")
	data.Append("a1", "w", "c0", "d1")
	for _, a := range []string{"a2", "a3", "a4", "a5"} {
		data.Append(a, "w", "c1", "d1")
	}
	data.SetAllConf(0.9)
	data.Tuples[0].Conf[0] = 0.5 // t0[A] is retractable, t1[A] is not
	for i := 2; i < data.Len(); i++ {
		data.Tuples[i].Conf[2] = 0.5 // fd2's group d1 is eRepair's: c1 wins 4 to 1
	}
	inc, ref := runModes(data, nil, rules, DefaultOptions())
	if d := diffResults(inc, ref); d != "" {
		t.Fatal(d)
	}
	t2 := inc.Data.Tuples[2]
	if t2.Marks[1] != relation.FixDeterministic || t2.Conf[1] > 0.9 {
		t.Errorf("t2[B] is (%v, %.2f), want frozen at its own confidence 0.90", t2.Marks[1], t2.Conf[1])
	}
	if v := inc.Data.Tuples[0].Values[0]; !relation.IsNull(v) {
		t.Errorf("t0[A] = %q, want it retracted once the freeze of t2[B] made w the kept value", v)
	}
}

// TestConstantCFDWakesOnPattern pins the constant-CFD rule: a write wakes a
// constant CFD for a tuple only if the tuple matches its LHS pattern after
// the write, since both its appliers return at once otherwise.
func TestConstantCFDWakesOnPattern(t *testing.T) {
	e := wakeEngine(t)
	s := e.data.Schema
	// B is read by phi alone, and t2 (A = a2) is outside its pattern.
	e.write(2, s.MustIndex("B"), "b1", 0.5, relation.FixPossible, "test")
	if got := wakePass(e); len(got) != 0 {
		t.Errorf("a write to t2[B] outside phi's pattern billed %v, want nothing", got)
	}
	// Bringing t2 into the pattern wakes phi for it.
	e.write(2, s.MustIndex("A"), "a1", 0.5, relation.FixPossible, "test")
	if got, want := wakePass(e)["phi"], (ApplyStats{CTuples: 1, HTuples: 1}); got != want {
		t.Errorf("a write bringing t2 into phi's pattern billed phi %+v, want %+v", got, want)
	}
}

// TestVariableCFDOwnWritesDoNotRebill pins the group self-write rule: the
// writes a variable CFD's own cRepair group pass makes to its RHS leave
// its groups clean for cRepair, so the fixpoint round after them visits
// nothing, while eRepair and hRepair still see the written group dirty; a
// group the pass only froze is dirty for hRepair alone; a write to the RHS
// from anywhere else re-bills the group.
func TestVariableCFDOwnWritesDoNotRebill(t *testing.T) {
	schema := relation.NewSchema("R", "A", "C")
	rules := rule.Derive([]*cfd.CFD{cfd.FD("fd", schema, []string{"A"}, "C")}, nil)
	data := relation.New(schema)
	data.Append("a1", "c1")
	data.Append("a1", "c2")
	data.Append("a2", "c3")
	data.SetAllConf(0.9)
	data.Tuples[1].Conf[1] = 0.5 // t1[C] is untrusted: the group agrees on c1
	e := New(data, nil, rules, DefaultOptions())
	gi := e.work.(*scheduler).gidx[0]
	gi.dirty[phaseE].clear() // drop the build's marks
	gi.dirty[phaseH].clear()

	e.CRepair()
	if len(e.res.Fixes) != 1 || e.res.Asserts != 2 || e.res.Rounds != 2 {
		t.Fatalf("cRepair made %d fixes and %d asserts in %d rounds, want 1, 2 and 2",
			len(e.res.Fixes), e.res.Asserts, e.res.Rounds)
	}
	if got, want := *e.res.Apply["fd"], (ApplyStats{CTuples: 3, CGroups: 2}); got != want {
		t.Errorf("fd billed %+v over both rounds, want %+v: its own writes re-billed its groups", got, want)
	}
	syms := []int{int(gi.key[0]), int(gi.key[2])}
	slices.Sort(syms)
	for p, want := range map[int][]int{phaseE: {int(gi.key[0])}, phaseH: syms} { //det:ok maporder each phase is checked on its own
		if got := gi.dirty[p].take(); !slices.Equal(got, want) {
			t.Errorf("phase %s: fd's writes left groups %v dirty, want %v", phaseName(p), got, want)
		}
	}

	e.write(2, schema.MustIndex("C"), "c4", 0.5, relation.FixPossible, "other")
	e.CRepair()
	if got, want := *e.res.Apply["fd"], (ApplyStats{CTuples: 4, CGroups: 3}); got != want {
		t.Errorf("after another writer's t2[C] write fd billed %+v, want %+v", got, want)
	}

	// The skip is cRepair's alone: fd's hRepair writes to C still C-mark
	// the group, since their confidence may reach eta.
	data = relation.New(schema)
	data.Append("a1", "c1")
	data.Append("a1", "c1")
	data.Append("a1", "c2")
	data.SetAllConf(0.5)
	e = New(data, nil, rules, DefaultOptions())
	gi = e.work.(*scheduler).gidx[0]
	e.CRepair() // below eta: drains the cRepair marks, writes nothing
	e.HRepair()
	if len(e.res.Fixes) != 1 {
		t.Fatalf("hRepair made %d fixes, want 1", len(e.res.Fixes))
	}
	if got, want := gi.dirty[phaseC].take(), []int{int(gi.key[0])}; !slices.Equal(got, want) {
		t.Errorf("fd's hRepair write left groups %v dirty for cRepair, want %v", got, want)
	}
}

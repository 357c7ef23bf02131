package md

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/similarity"
)

func schemas() (data, master *relation.Schema) {
	data = relation.NewSchema("tran",
		"FN", "LN", "St", "city", "AC", "post", "phn", "gd", "item", "when", "where")
	master = relation.NewSchema("card",
		"FN", "LN", "St", "city", "AC", "zip", "tel", "dob", "gd")
	return
}

// masterData builds Dm of Fig. 1(a).
func masterData(ms *relation.Schema) *relation.Relation {
	dm := relation.New(ms)
	dm.Append("Mark", "Smith", "10 Oak St", "Edi", "131", "EH8 9LE", "3256778", "10/10/1987", "Male")
	dm.Append("Robert", "Brady", "5 Wren St", "Ldn", "020", "WC1H 9SE", "3887644", "12/08/1975", "Male")
	return dm
}

// psi is the MD of Example 1.1:
// tran[LN,city,St,post] = card[LN,city,St,zip] ^ tran[FN] ~ card[FN]
//
//	-> tran[FN,phn] <=> card[FN,tel].
func psi(ds, ms *relation.Schema) *MD {
	return New("psi", ds, ms,
		[]ClauseSpec{
			Eq("LN", "LN"), Eq("city", "city"), Eq("St", "St"), Eq("post", "zip"),
			Sim("FN", "FN", similarity.EditWithin(3)),
		},
		[]PairSpec{{Data: "FN", Master: "FN"}, {Data: "phn", Master: "tel"}})
}

func TestExample23(t *testing.T) {
	// Example 2.3: D1 = {t1'} with t1'[city] = Ldn violates psi w.r.t. Dm,
	// since t1' agrees with s1 on LN, city... wait, the example uses
	// t1'[city]=Ldn matching s1? s1 has city=Edi. The journal text says
	// t1'[LN,city,St,post] = s1[LN,city,St,Zip]; with s1[city]=Edi the
	// example's t1' must have city=Edi for the premise to hold. We follow
	// the semantics: build t1' agreeing with s1 on the equality premise
	// and similar on FN, but differing on phn.
	ds, ms := schemas()
	dm := masterData(ms)
	d1 := relation.New(ds)
	d1.Append("M.", "Smith", "10 Oak St", "Edi", "131", "EH8 9LE", "9999999", "Male", "watch", "11am", "UK")
	m := psi(ds, ms)
	if Satisfies(d1, dm, m) {
		t.Error("(D1, Dm) must violate psi: t1' should be updated from s1")
	}
	vs := Violations(d1, dm, m)
	if len(vs) != 1 || vs[0].T != 0 || vs[0].S != 0 {
		t.Errorf("Violations = %+v", vs)
	}
}

func TestSatisfiedAfterUpdate(t *testing.T) {
	ds, ms := schemas()
	dm := masterData(ms)
	d := relation.New(ds)
	// FN and phn already carry the master values: no violation.
	d.Append("Mark", "Smith", "10 Oak St", "Edi", "131", "EH8 9LE", "3256778", "Male", "watch", "11am", "UK")
	if !Satisfies(d, dm, psi(ds, ms)) {
		t.Error("psi must be satisfied once FN/phn carry master values")
	}
}

func TestPremiseRequiresAllClauses(t *testing.T) {
	ds, ms := schemas()
	dm := masterData(ms)
	d := relation.New(ds)
	// Different city breaks the equality premise: no violation even
	// though FN is similar and phn differs.
	d.Append("M.", "Smith", "10 Oak St", "Ldn", "131", "EH8 9LE", "9999999", "Male", "w", "t", "UK")
	if !Satisfies(d, dm, psi(ds, ms)) {
		t.Error("premise must fail when city differs")
	}
}

func TestNullNeverMatchesPremise(t *testing.T) {
	ds, ms := schemas()
	dm := masterData(ms)
	d := relation.New(ds)
	d.Append("Mark", "Smith", relation.Null, "Edi", "131", "EH8 9LE", "9999999", "Male", "w", "t", "UK")
	if !Satisfies(d, dm, psi(ds, ms)) {
		t.Error("null St must not satisfy the equality premise")
	}
}

func TestNormalize(t *testing.T) {
	ds, ms := schemas()
	m := psi(ds, ms)
	got := m.Normalize()
	if len(got) != 2 {
		t.Fatalf("Normalize produced %d MDs", len(got))
	}
	for _, n := range got {
		if len(n.RHS) != 1 {
			t.Errorf("normalized MD has %d RHS pairs", len(n.RHS))
		}
		if len(n.LHS) != len(m.LHS) {
			t.Errorf("normalized MD LHS changed")
		}
	}
	single := &MD{Name: "x", Data: ds, Master: ms, RHS: []Pair{{0, 0}}}
	if got := single.Normalize(); len(got) != 1 || got[0] != single {
		t.Error("single-RHS MD must normalize to itself")
	}
}

func TestStringRendering(t *testing.T) {
	ds, ms := schemas()
	s := psi(ds, ms).String()
	for _, want := range []string{"tran[LN] = card[LN]", "tran[FN] edit<=3 card[FN]", "tran[phn] <=> card[tel]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestVisitViolationsBlockedMatchesScan pins the blocked streaming contract:
// with an exact candidate enumerator (here: all master indexes, and a
// premise-filtered subset), VisitViolationsBlocked must produce exactly
// the violations of the nested scan, in the same (T, S) order.
func TestVisitViolationsBlockedMatchesScan(t *testing.T) {
	ds, ms := schemas()
	dm := masterData(ms)
	d := relation.New(ds)
	d.Append("Bob", "Brady", "5 Wren St", "Ldn", "020", "WC1H 9SE", "1111111", "", "", "", "")
	d.Append("Robert", "Brady", "5 Wren St", "Ldn", "020", "WC1H 9SE", "2222222", "", "", "", "")
	d.Append("Mark", "Smith", "10 Oak St", "Edi", "131", "EH8 9LE", "3256778", "", "", "", "")
	m := psi(ds, ms)

	want := Violations(d, dm, m)
	if len(want) == 0 {
		t.Fatal("instance has no violations; test is vacuous")
	}
	all := make([]int, dm.Len())
	for j := range all {
		all[j] = j
	}
	var got []Violation
	VisitViolationsBlocked(d, dm, m, func(int, *relation.Tuple) []int { return all },
		func(v Violation) bool { got = append(got, v); return true })
	if len(got) != len(want) {
		t.Fatalf("blocked found %d violations, scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i].T != want[i].T || got[i].S != want[i].S {
			t.Fatalf("violation %d: blocked (%d,%d) != scan (%d,%d)",
				i, got[i].T, got[i].S, want[i].T, want[i].S)
		}
	}
	// A candidate enumerator may prune pairs that fail the premise without
	// changing the stream.
	got = got[:0]
	VisitViolationsBlocked(d, dm, m, func(_ int, tp *relation.Tuple) []int {
		var ids []int
		for j, s := range dm.Tuples {
			if m.MatchLHS(tp, s) {
				ids = append(ids, j)
			}
		}
		return ids
	}, func(v Violation) bool { got = append(got, v); return true })
	if len(got) != len(want) {
		t.Fatalf("premise-pruned blocked found %d violations, scan %d", len(got), len(want))
	}
	// Early exit must stop the stream.
	n := 0
	VisitViolationsBlocked(d, dm, m, func(int, *relation.Tuple) []int { return all },
		func(Violation) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-exit visitor called %d times, want 1", n)
	}
}

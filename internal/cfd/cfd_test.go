package cfd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
)

// tranSchema mirrors the tran schema of Fig. 1(b) in the paper.
func tranSchema() *relation.Schema {
	return relation.NewSchema("tran",
		"FN", "LN", "St", "city", "AC", "post", "phn", "gd", "item", "when", "where")
}

// fig1Data builds the instance D of Fig. 1(b).
func fig1Data() *relation.Relation {
	d := relation.New(tranSchema())
	d.Append("M.", "Smith", "10 Oak St", "Ldn", "131", "EH8 9LE", "9999999", "Male", "watch, 350 GBP", "11am 28/08/10", "UK")
	d.Append("Max", "Smith", "Po Box 25", "Edi", "131", "EH8 9AB", "3256778", "Male", "DVD, 800 INR", "8pm 28/09/10", "India")
	d.Append("Bob", "Brady", "5 Wren St", "Edi", "020", "WC1H 9SE", "3887834", "Male", "iPhone, 599 GBP", "6pm 06/11/09", "UK")
	d.Append("Robert", "Brady", relation.Null, "Ldn", "020", "WC1E 7HX", "3887644", "Male", "ring, 2,100 USD", "1pm 06/11/09", "USA")
	return d
}

// phi1: tran([AC] -> [city], (131 || Edi))
func phi1(s *relation.Schema) *CFD {
	return New("phi1", s, []string{"AC"}, []string{"131"}, "city", "Edi")
}

// phi3: tran([city,phn] -> [St,AC,post]) normalized; here the St component.
func phi3St(s *relation.Schema) *CFD {
	return FD("phi3.St", s, []string{"city", "phn"}, "St")
}

// phi4: tran([FN] -> [FN], (Bob || Robert))
func phi4(s *relation.Schema) *CFD {
	return New("phi4", s, []string{"FN"}, []string{"Bob"}, "FN", "Robert")
}

func TestExample22PaperSemantics(t *testing.T) {
	// Example 2.2: D |/= phi1 (t1 violates), D |/= phi4 (t3 violates),
	// D |= phi3.
	d := fig1Data()
	s := d.Schema
	if Satisfies(d, phi1(s)) {
		t.Error("D must violate phi1 (t1 has AC=131, city=Ldn)")
	}
	if Satisfies(d, phi4(s)) {
		t.Error("D must violate phi4 (t3 has FN=Bob)")
	}
	if !Satisfies(d, phi3St(s)) {
		t.Error("D must satisfy phi3 (no two tuples agree on city,phn)")
	}
}

func TestConstantViolationDetails(t *testing.T) {
	d := fig1Data()
	vs := Violations(d, phi1(d.Schema))
	if len(vs) != 1 || vs[0].T1 != 0 || vs[0].T2 != -1 {
		t.Errorf("Violations(phi1) = %+v, want single violation on t1", vs)
	}
	vs = Violations(d, phi4(d.Schema))
	if len(vs) != 1 || vs[0].T1 != 2 {
		t.Errorf("Violations(phi4) = %+v, want single violation on t3", vs)
	}
}

func TestVariableCFDViolation(t *testing.T) {
	s := relation.NewSchema("r", "A", "B")
	d := relation.New(s)
	d.Append("x", "1")
	d.Append("x", "2")
	d.Append("y", "3")
	c := FD("fd", s, []string{"A"}, "B")
	if Satisfies(d, c) {
		t.Error("FD A->B must be violated")
	}
	vs := Violations(d, c)
	if len(vs) != 1 || vs[0].T1 != 0 || vs[0].T2 != 1 {
		t.Errorf("Violations = %+v", vs)
	}
}

func TestVariableCFDWithConstantLHS(t *testing.T) {
	s := relation.NewSchema("r", "A", "B", "C")
	d := relation.New(s)
	d.Append("k", "x", "1")
	d.Append("k", "x", "2") // violates only if A matches pattern k
	d.Append("z", "x", "9")
	d.Append("z", "x", "8") // A=z does not match pattern, no violation
	c := New("c", s, []string{"A", "B"}, []string{"k", Wildcard}, "C", Wildcard)
	vs := Violations(d, c)
	if len(vs) != 1 || vs[0].T1 != 0 || vs[0].T2 != 1 {
		t.Errorf("Violations = %+v", vs)
	}
}

func TestNullNeverMatchesPattern(t *testing.T) {
	s := relation.NewSchema("r", "A", "B")
	d := relation.New(s)
	d.Append(relation.Null, "1")
	d.Append(relation.Null, "2")
	c := FD("fd", s, []string{"A"}, "B")
	// Section 7: CFDs only apply to tuples precisely matching a pattern,
	// which never contains null. So null LHS values trigger nothing.
	if !Satisfies(d, c) {
		t.Error("null LHS must not participate in CFD checking")
	}
	// A constant CFD must not fire on null either.
	cc := New("cc", s, []string{"A"}, []string{"k"}, "B", "v")
	if !Satisfies(d, cc) {
		t.Error("null must not match constant pattern")
	}
}

func TestSatisfiesAll(t *testing.T) {
	d := fig1Data()
	s := d.Schema
	if SatisfiesAll(d, []*CFD{phi3St(s), phi1(s)}) {
		t.Error("SatisfiesAll must be false when any CFD is violated")
	}
	if !SatisfiesAll(d, []*CFD{phi3St(s)}) {
		t.Error("SatisfiesAll must be true for satisfied set")
	}
	if !SatisfiesAll(d, nil) {
		t.Error("empty set is vacuously satisfied")
	}
}

func TestNormalize(t *testing.T) {
	s := tranSchema()
	raw := Raw{
		Name:       "phi3",
		Schema:     s,
		LHS:        []string{"city", "phn"},
		LHSPattern: []string{Wildcard, Wildcard},
		RHS:        []string{"St", "AC", "post"},
		RHSPattern: []string{Wildcard, Wildcard, Wildcard},
	}
	got := raw.Normalize()
	if len(got) != 3 {
		t.Fatalf("Normalize produced %d CFDs", len(got))
	}
	wantRHS := []string{"St", "AC", "post"}
	for i, c := range got {
		if s.Attrs[c.RHS] != wantRHS[i] {
			t.Errorf("CFD %d RHS = %s, want %s", i, s.Attrs[c.RHS], wantRHS[i])
		}
		if len(c.LHS) != 2 {
			t.Errorf("CFD %d LHS arity = %d", i, len(c.LHS))
		}
		if !strings.Contains(c.Name, "phi3.") {
			t.Errorf("CFD %d name = %q", i, c.Name)
		}
	}
	single := Raw{Name: "one", Schema: s, LHS: []string{"AC"}, LHSPattern: []string{"131"},
		RHS: []string{"city"}, RHSPattern: []string{"Edi"}}
	if got := single.Normalize(); len(got) != 1 || got[0].Name != "one" {
		t.Errorf("single-RHS Normalize = %+v", got)
	}
}

func TestIsConstant(t *testing.T) {
	s := tranSchema()
	if c := phi1(s); !c.IsConstant() {
		t.Error("phi1 must be constant")
	}
	if c := phi3St(s); c.IsConstant() {
		t.Error("phi3 must be variable")
	}
}

func TestStringRendering(t *testing.T) {
	s := tranSchema()
	got := phi1(s).String()
	want := "tran([AC] -> [city], (131 || Edi))"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestNewPanicsOnArityMismatch(t *testing.T) {
	s := tranSchema()
	defer func() {
		if recover() == nil {
			t.Fatal("New with mismatched pattern arity did not panic")
		}
	}()
	New("bad", s, []string{"AC", "city"}, []string{"131"}, "city", "Edi")
}

// TestViolationsAllocsFlatInTuples pins the grouping scans' key handling:
// each tuple's LHS key is built in one reused buffer and probed as
// string(buf), so at a fixed number of groups and violations the
// allocations of Violations and Satisfies do not grow with |D|. (Groups
// shares the scan, but its member lists grow with |D| by design.)
func TestViolationsAllocsFlatInTuples(t *testing.T) {
	const groups = 16
	s := relation.NewSchema("R", "zip", "city")
	fd := FD("zip_city", s, []string{"zip"}, "city")
	instance := func(n int) *relation.Relation {
		d := relation.New(s)
		for i := range n {
			g := fmt.Sprintf("z%02d", i%groups)
			d.Append(g, "city-"+g)
		}
		d.Tuples[n-1].Values[1] = "other" // one violation
		return d
	}
	small, large := instance(200), instance(4000)
	for _, c := range []struct {
		name string
		run  func(d *relation.Relation)
	}{
		{"Violations", func(d *relation.Relation) { Violations(d, fd) }},
		{"Satisfies", func(d *relation.Relation) { Satisfies(d, fd) }},
	} {
		a := testing.AllocsPerRun(20, func() { c.run(small) })
		b := testing.AllocsPerRun(20, func() { c.run(large) })
		if b > a {
			t.Errorf("%s: %.0f allocs over %d tuples, %.0f over %d: a key is allocated per tuple",
				c.name, b, large.Len(), a, small.Len())
		}
	}
}

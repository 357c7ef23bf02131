package rule

import (
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/similarity"
)

func schemas() (*relation.Schema, *relation.Schema) {
	data := relation.NewSchema("tran",
		"FN", "LN", "St", "city", "AC", "post", "phn", "gd", "item", "when", "where")
	master := relation.NewSchema("card",
		"FN", "LN", "St", "city", "AC", "zip", "tel", "dob", "gd")
	return data, master
}

// example11Rules builds phi1, phi2, phi3 (multi-RHS), phi4 and psi of
// Example 1.1 as one non-normalized bundle.
func example11Rules() ([]*cfd.CFD, []*md.MD) {
	ds, ms := schemas()
	phi1 := cfd.New("phi1", ds, []string{"AC"}, []string{"131"}, "city", "Edi")
	phi2 := cfd.New("phi2", ds, []string{"AC"}, []string{"020"}, "city", "Ldn")
	phi3 := cfd.Raw{Name: "phi3", Schema: ds,
		LHS: []string{"city", "phn"}, LHSPattern: []string{cfd.Wildcard, cfd.Wildcard},
		RHS: []string{"St", "AC", "post"}, RHSPattern: []string{cfd.Wildcard, cfd.Wildcard, cfd.Wildcard}}
	phi4 := cfd.New("phi4", ds, []string{"FN"}, []string{"Bob"}, "FN", "Robert")
	psi := md.New("psi", ds, ms,
		[]md.ClauseSpec{
			md.Eq("LN", "LN"), md.Eq("city", "city"), md.Eq("St", "St"), md.Eq("post", "zip"),
			md.Sim("FN", "FN", similarity.EditWithin(3)),
		},
		[]md.PairSpec{{Data: "FN", Master: "FN"}, {Data: "phn", Master: "tel"}})
	cfds := []*cfd.CFD{phi1, phi2}
	cfds = append(cfds, phi3.Normalize()...)
	cfds = append(cfds, phi4)
	return cfds, psi.Normalize()
}

func TestDeriveKinds(t *testing.T) {
	cfds, mds := example11Rules()
	rules := Derive(cfds, mds)
	if len(rules) != 6+2 {
		t.Fatalf("Derive produced %d rules", len(rules))
	}
	wantKinds := []Kind{ConstantCFD, ConstantCFD, VariableCFD, VariableCFD, VariableCFD, ConstantCFD, MatchMD, MatchMD}
	for i, r := range rules {
		if r.Kind != wantKinds[i] {
			t.Errorf("rule %d (%s) kind = %v, want %v", i, r.Name(), r.Kind, wantKinds[i])
		}
	}
}

func TestLHSAndRHSAttrs(t *testing.T) {
	ds, ms := schemas()
	rules := Derive(
		[]*cfd.CFD{cfd.New("phi1", ds, []string{"AC"}, []string{"131"}, "city", "Edi")},
		[]*md.MD{md.New("m", ds, ms,
			[]md.ClauseSpec{md.Eq("LN", "LN")},
			[]md.PairSpec{{Data: "phn", Master: "tel"}})})
	if got := rules[0].LHSAttrs(); !reflect.DeepEqual(got, []int{ds.MustIndex("AC")}) {
		t.Errorf("CFD LHSAttrs = %v", got)
	}
	if got := rules[0].RHSAttrs(); !reflect.DeepEqual(got, []int{ds.MustIndex("city")}) {
		t.Errorf("CFD RHSAttrs = %v", got)
	}
	if got := rules[1].LHSAttrs(); !reflect.DeepEqual(got, []int{ds.MustIndex("LN")}) {
		t.Errorf("MD LHSAttrs = %v", got)
	}
	if got := rules[1].RHSAttrs(); !reflect.DeepEqual(got, []int{ds.MustIndex("phn")}) {
		t.Errorf("MD RHSAttrs = %v", got)
	}
}

func TestDependencyGraphEdges(t *testing.T) {
	// phi1 writes city; phi3.* read city; psi reads city. So phi1 must
	// have edges to every phi3 component and both psi components.
	cfds, mds := example11Rules()
	rules := Derive(cfds, mds)
	g := BuildGraph(rules)
	nameOf := func(i int) string { return rules[i].Name() }
	phi1Out := map[string]bool{}
	for i, r := range rules {
		if r.Name() == "phi1" {
			for _, v := range g.Adj[i] {
				phi1Out[nameOf(v)] = true
			}
		}
	}
	for _, want := range []string{"phi3.1", "phi3.2", "phi3.3", "psi.1", "psi.2"} {
		if !phi1Out[want] {
			t.Errorf("missing edge phi1 -> %s (got %v)", want, phi1Out)
		}
	}
	if phi1Out["phi1"] || phi1Out["phi2"] {
		t.Errorf("unexpected edge from phi1: %v", phi1Out)
	}
}

func TestSCCsSingleComponent(t *testing.T) {
	// In Example 6.1 the whole rule set forms one SCC.
	cfds, mds := example11Rules()
	rules := Derive(cfds, mds)
	g := BuildGraph(rules)
	comps := g.SCCs()
	// All seven rules are mutually reachable: phi1 -> phi3 -> phi1 via
	// AC/city, psi -> phi4 -> psi via FN, psi -> phi3 via phn, etc.
	largest := 0
	for _, c := range comps {
		if len(c) > largest {
			largest = len(c)
		}
	}
	if largest != len(rules) {
		t.Errorf("largest SCC = %d, want %d (comps %v)", largest, len(rules), comps)
	}
}

func TestSCCsChain(t *testing.T) {
	// A -> B -> C chain with no cycles: three singleton SCCs, topo order
	// must put A before B before C in Order().
	s := relation.NewSchema("r", "A", "B", "C", "D")
	r1 := cfd.FD("r1", s, []string{"A"}, "B")
	r2 := cfd.FD("r2", s, []string{"B"}, "C")
	r3 := cfd.FD("r3", s, []string{"C"}, "D")
	rules := Derive([]*cfd.CFD{r3, r1, r2}, nil) // shuffled input
	ordered := Order(rules)
	pos := map[string]int{}
	for i, r := range ordered {
		pos[r.Name()] = i
	}
	if !(pos["r1"] < pos["r2"] && pos["r2"] < pos["r3"]) {
		t.Errorf("order = %v", pos)
	}
}

func TestOrderExample61(t *testing.T) {
	// Example 6.1: the order is phi1 > phi2 > phi3 > phi4 > psi.
	// With normalized rules, all phi3 components must come after phi1 and
	// phi2, and psi components last among the low-ratio rules.
	cfds, mds := example11Rules()
	rules := Derive(cfds, mds)
	ordered := Order(rules)
	pos := map[string]int{}
	for i, r := range ordered {
		pos[r.Name()] = i
	}
	if !(pos["phi1"] < pos["phi3.1"] && pos["phi2"] < pos["phi3.1"]) {
		t.Errorf("phi1/phi2 must precede phi3: %v", pos)
	}
	if !(pos["phi1"] < pos["psi.1"] && pos["phi4"] < pos["psi.2"]) {
		t.Errorf("psi must come last: %v", pos)
	}
}

func TestOrderIsPermutation(t *testing.T) {
	cfds, mds := example11Rules()
	rules := Derive(cfds, mds)
	ordered := Order(rules)
	if len(ordered) != len(rules) {
		t.Fatalf("Order changed rule count: %d vs %d", len(ordered), len(rules))
	}
	seen := map[string]bool{}
	for _, r := range ordered {
		if seen[r.Name()] {
			t.Errorf("duplicate rule %s", r.Name())
		}
		seen[r.Name()] = true
	}
}

func TestKindString(t *testing.T) {
	if ConstantCFD.String() != "constantCFD" || VariableCFD.String() != "variableCFD" ||
		MatchMD.String() != "matchMD" || Kind(9).String() != "unknown" {
		t.Error("Kind.String broken")
	}
}

func TestParseRules(t *testing.T) {
	ds, ms := schemas()
	text := `
# Example 1.1 rules
cfd AC=131 -> city=Edi
cfd AC=020 -> city=Ldn
cfd city, phn -> St, AC, post
cfd FN=Bob -> FN=Robert
md LN=LN, city=city, St=St, post=zip, FN~FN(edit<=2) -> FN=FN, phn=tel
`
	cfds, mds, err := ParseRules(ds, ms, text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfds) != 2+3+1 {
		t.Errorf("parsed %d CFDs, want 6", len(cfds))
	}
	if len(mds) != 2 {
		t.Errorf("parsed %d MDs, want 2 (normalized)", len(mds))
	}
	if !cfds[0].IsConstant() || cfds[0].RHSPattern != "Edi" {
		t.Errorf("cfd1 = %s", cfds[0])
	}
	if cfds[2].IsConstant() {
		t.Errorf("cfd3.1 must be variable: %s", cfds[2])
	}
	if len(mds[0].LHS) != 5 {
		t.Errorf("md premise has %d clauses", len(mds[0].LHS))
	}
}

func TestParseRulesPredicates(t *testing.T) {
	ds, ms := schemas()
	for _, pred := range []string{"edit<=2", "jw>=0.9", "jaccard2>=0.5", "="} {
		_, mds, err := ParseRules(ds, ms, "md FN~FN("+pred+") -> FN=FN")
		if err != nil {
			t.Errorf("predicate %q: %v", pred, err)
			continue
		}
		if len(mds) != 1 {
			t.Errorf("predicate %q: %d MDs", pred, len(mds))
		}
	}
}

func TestParseRulesErrors(t *testing.T) {
	ds, ms := schemas()
	bad := []string{
		"cfd -> city=Edi",
		"cfd AC=131 city=Edi",
		"cfd Bogus=1 -> city=Edi",
		"cfd AC=131 -> Bogus=Edi",
		"md FN~FN(edit<=x) -> FN=FN",
		"md FN~FN(unknown<=2) -> FN=FN",
		"md FN=FN -> ",
		"xyz AC=131 -> city=Edi",
		"cfd",
	}
	for _, text := range bad {
		if _, _, err := ParseRules(ds, ms, text); err == nil {
			t.Errorf("ParseRules(%q) succeeded, want error", text)
		}
	}
	if _, _, err := ParseRules(ds, nil, "md FN=FN -> FN=FN"); err == nil {
		t.Error("md without master schema must fail")
	}
}

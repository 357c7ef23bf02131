package clean

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
)

// figure1 builds the dirty-transactions example modeled on the paper's
// Figure 1: transaction records tran(FN, LN, St, city, AC, post, phn)
// cleaned against master cards card(FN, LN, St, city, AC, zip, tel).
func figure1(t testing.TB) (data, master *relation.Relation, rules []rule.Rule) {
	t.Helper()
	tran := relation.NewSchema("tran", "FN", "LN", "St", "city", "AC", "post", "phn")
	card := relation.NewSchema("card", "FN", "LN", "St", "city", "AC", "zip", "tel")

	data = relation.New(tran)
	add := func(vals []string, confs []float64) {
		tp := data.Append(vals...)
		copy(tp.Conf, confs)
	}
	add([]string{"Rob", "Brady", "", "Edi", "131", "EH7 4AH", "3887644"},
		[]float64{0.6, 0.9, 0, 0.9, 0.9, 0.9, 0.9})
	add([]string{"Robert", "Brady", "501 Elm Row", "Ldn", "131", "EH7 4AH", "3887644"},
		[]float64{0.9, 0.9, 0.9, 0.3, 0.9, 0.9, 0.9})
	add([]string{"Robert", "Brady", "501 Elm St", "Edi", "131", "EH7 4AH", "9999999"},
		[]float64{0.9, 0.9, 0.4, 0.9, 0.9, 0.9, 0.2})
	add([]string{"Mary", "Smith", "20 Baker St", "Ldn", "020", "NW1 6XE", "7654321"},
		[]float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9})
	add([]string{"Robert", "Brady", "501 Elm Row", "Edi", "131", "", "3887644"},
		[]float64{0.9, 0.9, 0.9, 0.9, 0.9, 0, 0.5})

	master = relation.New(card)
	master.Append("Robert", "Brady", "501 Elm Row", "Edi", "131", "EH7 4AH", "3887644")
	master.Append("Mary", "Smith", "20 Baker St", "Ldn", "020", "NW1 6XE", "7654321")
	master.SetAllConf(1)

	text := `
# Area code determines city (constant CFDs, Fig. 1 phi1/phi2).
cfd AC=131 -> city=Edi
cfd AC=020 -> city=Ldn
# Postal code determines street; phone determines postal code.
cfd post -> St
cfd phn -> post
# Match transactions against master cards (MD psi of Fig. 1).
md LN=LN, city=city, post=zip, FN~FN(edit<=3) -> FN=FN, St=St, phn=tel
`
	cfds, mds, err := rule.ParseRules(tran, card, text)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	return data, master, rule.Derive(cfds, mds)
}

func TestGoldenFigure1(t *testing.T) {
	data, master, rules := figure1(t)
	opts := DefaultOptions()
	res := Run(data, master, rules, opts)

	want := [][]string{
		{"Robert", "Brady", "501 Elm Row", "Edi", "131", "EH7 4AH", "3887644"},
		{"Robert", "Brady", "501 Elm Row", "Edi", "131", "EH7 4AH", "3887644"},
		{"Robert", "Brady", "501 Elm Row", "Edi", "131", "EH7 4AH", "3887644"},
		{"Mary", "Smith", "20 Baker St", "Ldn", "020", "NW1 6XE", "7654321"},
		{"Robert", "Brady", "501 Elm Row", "Edi", "131", "EH7 4AH", "3887644"},
	}
	for i, w := range want {
		if got := res.Data.Tuples[i].Values; !reflect.DeepEqual(got, w) {
			t.Errorf("tuple %d = %v, want %v", i, got, w)
		}
	}

	// Every cell changed by cRepair is FixDeterministic with conf >= eta,
	// and the relation agrees with the recorded fix.
	det := res.DeterministicFixes()
	for _, f := range det {
		if f.Conf < opts.Eta {
			t.Errorf("deterministic fix %v has confidence below eta", f)
		}
		tp := res.Data.Tuples[f.Tuple]
		if tp.Marks[f.Attr] != relation.FixDeterministic || tp.Conf[f.Attr] < opts.Eta {
			t.Errorf("cell t%d[%s] not frozen with conf >= eta after fix %v", f.Tuple, f.Attribute, f)
		}
	}
	wantDet := map[string]string{
		"t1.city": "Edi",
		"t0.FN":   "Robert",
		"t0.St":   "501 Elm Row",
		"t2.St":   "501 Elm Row",
		"t2.phn":  "3887644",
	}
	gotDet := make(map[string]string)
	for _, f := range det {
		gotDet[fmt.Sprintf("t%d.%s", f.Tuple, f.Attribute)] = f.New
	}
	if !reflect.DeepEqual(gotDet, wantDet) {
		t.Errorf("cRepair fixes = %v, want %v", gotDet, wantDet)
	}

	// t4's post is unreachable by cRepair (its premise cells are below eta)
	// and must come from eRepair as a reliable fix.
	if got := res.Data.Tuples[4].Marks[data.Schema.MustIndex("post")]; got != relation.FixReliable {
		t.Errorf("t4.post mark = %v, want reliable", got)
	}
	if res.GroupsResolved == 0 {
		t.Error("eRepair resolved no groups")
	}

	// The engine's resolution claims must be verifiable independently.
	if len(res.Unresolved) != 0 {
		t.Errorf("unresolved rules: %v", res.Unresolved)
	}
	for _, r := range rules {
		switch r.Kind {
		case rule.MatchMD:
			if !md.Satisfies(res.Data, master, r.MD) {
				t.Errorf("repair does not satisfy %s", r.Name())
			}
		default:
			if !cfd.Satisfies(res.Data, r.CFD) {
				t.Errorf("repair does not satisfy %s", r.Name())
			}
		}
	}

	// MD matching must have gone through the equality index: no full scans,
	// and far fewer candidates than lookups x |Dm|.
	for name, st := range res.Match { //det:ok maporder per-rule assertions are independent; order affects only failure-message order
		if st.FullScans != 0 {
			t.Errorf("%s: %d full scans", name, st.FullScans)
		}
		if st.Lookups == 0 || st.Candidates > st.Lookups {
			t.Errorf("%s: %d candidates for %d lookups, equality index not used", name, st.Candidates, st.Lookups)
		}
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	data, master, rules := figure1(t)
	before := data.Clone()
	Run(data, master, rules, DefaultOptions())
	if data.DiffCells(before) != 0 {
		t.Error("Run mutated its input relation")
	}
	for i, tp := range data.Tuples {
		for a := range tp.Marks {
			//det:ok floateq bit-exact no-mutation check: the input confidences must be untouched, not approximately equal
			if tp.Marks[a] != relation.FixNone || tp.Conf[a] != before.Tuples[i].Conf[a] {
				t.Fatalf("Run mutated marks/confs of input tuple %d", i)
			}
		}
	}
}

// TestEqualityIndexBlocking checks that an MD whose premise has equality
// clauses is matched through the hash index: the candidate set stays far
// below |Dm| even though the premise also has a similarity clause.
func TestEqualityIndexBlocking(t *testing.T) {
	const n = 200
	dschema := relation.NewSchema("R", "name", "code")
	mschema := relation.NewSchema("M", "name", "code")
	master := relation.New(mschema)
	for i := 0; i < n; i++ {
		master.Append(fmt.Sprintf("name-%03d", i), fmt.Sprintf("code-%03d", i))
	}
	master.SetAllConf(1)
	data := relation.New(dschema)
	for i := 0; i < 5; i++ {
		data.Append(fmt.Sprintf("name-%03d", i*17), "wrong")
	}
	data.SetAllConf(0.9)
	m := md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Eq("name", "name")},
		[]md.PairSpec{{Data: "code", Master: "code"}})
	res := Run(data, master, rule.Derive(nil, []*md.MD{m}), DefaultOptions())

	for i := 0; i < 5; i++ {
		if got, want := res.Data.Tuples[i].Values[1], fmt.Sprintf("code-%03d", i*17); got != want {
			t.Errorf("tuple %d code = %q, want %q", i, got, want)
		}
	}
	st := res.Match["psi"]
	if st.FullScans != 0 {
		t.Fatalf("%d full scans, want 0", st.FullScans)
	}
	if st.Candidates > st.Lookups {
		t.Errorf("candidates = %d for %d lookups over |Dm| = %d: index not selective",
			st.Candidates, st.Lookups, st.MasterSize)
	}
	if naive := st.Lookups * st.MasterSize; st.Candidates*10 >= naive {
		t.Errorf("candidate set %d not << naive %d", st.Candidates, naive)
	}
}

// TestSuffixTreeBlocking checks that an MD with only an edit-distance clause
// is matched through the suffix tree: candidates are bounded by TopL per
// lookup and stay far below |Dm|, while typo'd names still match.
func TestSuffixTreeBlocking(t *testing.T) {
	const n = 200
	dschema := relation.NewSchema("R", "name", "code")
	mschema := relation.NewSchema("M", "name", "code")
	master := relation.New(mschema)
	for i := 0; i < n; i++ {
		master.Append(fmt.Sprintf("%c%c%c-%03d", 'a'+i%26, 'a'+(i/3)%26, 'a'+(i/7)%26, i),
			fmt.Sprintf("code-%03d", i))
	}
	master.SetAllConf(1)
	data := relation.New(dschema)
	// Tuple names are one edit away from master names 0, 51, 102, 153.
	for i := 0; i < 4; i++ {
		j := i * 51
		name := master.Tuples[j].Values[0]
		data.Append("X"+name[1:], "unknown")
	}
	data.SetAllConf(0.9)
	m := md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Sim("name", "name", similarity.EditWithin(2))},
		[]md.PairSpec{{Data: "code", Master: "code"}})
	opts := DefaultOptions()
	res := Run(data, master, rule.Derive(nil, []*md.MD{m}), opts)

	for i := 0; i < 4; i++ {
		if got, want := res.Data.Tuples[i].Values[1], fmt.Sprintf("code-%03d", i*51); got != want {
			t.Errorf("tuple %d code = %q, want %q", i, got, want)
		}
	}
	st := res.Match["psi"]
	if st.FullScans != 0 {
		t.Fatalf("%d full scans, want 0", st.FullScans)
	}
	if st.Candidates > st.Lookups*opts.TopL {
		t.Errorf("candidates = %d exceed TopL bound %d", st.Candidates, st.Lookups*opts.TopL)
	}
	if naive := st.Lookups * st.MasterSize; st.Candidates*3 >= naive {
		t.Errorf("candidate set %d not << naive %d", st.Candidates, naive)
	}
}

// TestSuffixTreeBlockingIsSound checks the blocking bound against its worst
// case: k edits spread evenly across the string leave only pieces of length
// floor(|v|/(k+1)) intact, and such matches must still be found.
func TestSuffixTreeBlockingIsSound(t *testing.T) {
	dschema := relation.NewSchema("R", "name", "code")
	mschema := relation.NewSchema("M", "name", "code")
	master := relation.New(mschema)
	master.Append("abcde", "right") // edit distance 1 via the middle char
	master.Append("vwxyz", "other")
	master.SetAllConf(1)
	data := relation.New(dschema)
	data.Append("abXde", "unknown") // longest common substring is only 2
	data.SetAllConf(0.9)
	m := md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Sim("name", "name", similarity.EditWithin(1))},
		[]md.PairSpec{{Data: "code", Master: "code"}})
	res := Run(data, master, rule.Derive(nil, []*md.MD{m}), DefaultOptions())
	if got := res.Data.Tuples[0].Values[1]; got != "right" {
		t.Errorf("code = %q, want %q: blocking pruned a true edit<=1 match", got, "right")
	}
}

// TestERepairEntropyOrderAndRekeying drives eRepair alone: cRepair is inert
// because no cell reaches eta. The lower-entropy group must be resolved
// first, and its resolution re-keys the groups of the downstream CFD.
func TestERepairEntropyOrderAndRekeying(t *testing.T) {
	schema := relation.NewSchema("R", "a", "b", "c")
	data := relation.New(schema)
	data.Append("x", "p", "m")
	data.Append("x", "p", "m")
	data.Append("x", "q", "m")
	data.Append("y", "r", "n")
	data.Append("y", "r", "o")
	rules := rule.Derive([]*cfd.CFD{
		cfd.FD("fd1", schema, []string{"a"}, "b"),
		cfd.FD("fd2", schema, []string{"b"}, "c"),
	}, nil)
	res := Run(data, nil, rules, DefaultOptions())

	if len(res.DeterministicFixes()) != 0 {
		t.Fatalf("unexpected deterministic fixes: %v", res.Fixes)
	}
	want := [][]string{
		{"x", "p", "m"},
		{"x", "p", "m"},
		{"x", "p", "m"},
		{"y", "r", "n"},
		{"y", "r", "n"},
	}
	for i, w := range want {
		if got := res.Data.Tuples[i].Values; !reflect.DeepEqual(got, w) {
			t.Errorf("tuple %d = %v, want %v", i, got, w)
		}
	}
	if res.GroupsResolved != 2 {
		t.Errorf("GroupsResolved = %d, want 2", res.GroupsResolved)
	}
	for _, f := range res.Fixes {
		if f.Mark != relation.FixReliable {
			t.Errorf("fix %v not marked reliable", f)
		}
	}
	// The (a=x -> b) group has entropy ~0.92, the (b=r -> c) group 1.0, so
	// the b-fix must be recorded before the c-fix.
	if len(res.Fixes) != 2 || res.Fixes[0].Attribute != "b" || res.Fixes[1].Attribute != "c" {
		t.Errorf("fixes = %v, want b resolved before c", res.Fixes)
	}
	if !cfd.SatisfiesAll(res.Data, []*cfd.CFD{rules[0].CFD, rules[1].CFD}) {
		t.Error("repair does not satisfy the FDs")
	}
}

// TestERepairQueueContract pins the resolution order of eRepair's queue,
// under both worklists. Groups of equal entropy come out in ascending id
// order; a group whose entropy rises when an earlier resolution moves a
// tuple into it is resolved once, at its new position, and never through
// the heap entry its old key left behind.
func TestERepairQueueContract(t *testing.T) {
	type write struct {
		tuple int
		attr  string
	}
	check := func(t *testing.T, data *relation.Relation, rules []rule.Rule, resolved int, want []write) {
		t.Helper()
		for _, rescan := range []bool{false, true} {
			run := Run
			if rescan {
				run = runRescan
			}
			res := run(data, nil, rules, DefaultOptions())
			var got []write
			for _, f := range res.Fixes {
				got = append(got, write{f.Tuple, f.Attribute})
			}
			if !reflect.DeepEqual(got, want) || res.GroupsResolved != resolved {
				t.Errorf("rescan=%v: fixes %v, %d groups resolved; want %v, %d", rescan, got, res.GroupsResolved, want, resolved)
			}
		}
	}

	t.Run("equal entropy resolves by ascending id", func(t *testing.T) {
		schema := relation.NewSchema("R", "a", "b")
		data := relation.New(schema)
		data.Append("y", "r") // group "0|y" comes first in the relation ...
		data.Append("y", "r")
		data.Append("y", "s")
		data.Append("x", "p") // ... but "0|x" has the smaller id
		data.Append("x", "p")
		data.Append("x", "q")
		rules := rule.Derive([]*cfd.CFD{cfd.FD("fd", schema, []string{"a"}, "b")}, nil)
		check(t, data, rules, 2, []write{{5, "b"}, {2, "b"}})
	})

	t.Run("re-keyed group resolves once at its new entropy", func(t *testing.T) {
		schema := relation.NewSchema("R", "a", "b", "c")
		data := relation.New(schema)
		data.Append("x", "p", "m") // fd1 a=x: b {p,p,p,p,q}, entropy 0.72
		data.Append("x", "p", "m") // fd2 b=p: c {m,m,m,n}, entropy 0.81
		data.Append("x", "p", "m")
		data.Append("x", "p", "n")
		data.Append("x", "q", "n") // b q->p raises fd2 b=p to 0.97
		data.Append("z", "u", "k") // fd1 a=z: b {u,u,v}, entropy 0.92
		data.Append("z", "u", "k")
		data.Append("z", "v", "k")
		rules := rule.Derive([]*cfd.CFD{
			cfd.FD("fd1", schema, []string{"a"}, "b"),
			cfd.FD("fd2", schema, []string{"b"}, "c"),
		}, nil)
		// a=x first; then a=z, which now sits below b=p; b=p last, with
		// tuple 4 among its members.
		check(t, data, rules, 3, []write{{4, "b"}, {7, "b"}, {3, "c"}, {4, "c"}})
	})
}

// TestFrozenCellsAreImmutable: once cRepair freezes a cell, a later
// conflicting rule must record a conflict instead of overwriting it.
func TestFrozenCellsAreImmutable(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B")
	data := relation.New(schema)
	data.Append("1", "zzz")
	data.SetAllConf(0.9)
	rules := rule.Derive([]*cfd.CFD{
		cfd.New("phi1", schema, []string{"A"}, []string{"1"}, "B", "x"),
		cfd.New("phi2", schema, []string{"A"}, []string{"1"}, "B", "y"),
	}, nil)
	res := Run(data, nil, rules, DefaultOptions())
	if got := res.Data.Tuples[0].Values[1]; got != "x" && got != "y" {
		t.Errorf("B = %q, want one of the rule constants", got)
	}
	if got := res.Data.Tuples[0].Marks[1]; got != relation.FixDeterministic {
		t.Errorf("B mark = %v, want deterministic (frozen)", got)
	}
	if len(res.DeterministicFixes()) != 1 {
		t.Errorf("fixes = %v, want exactly one write to the frozen cell", res.Fixes)
	}
	if len(res.Conflicts) != 1 {
		t.Errorf("conflicts = %v, want exactly one record (not re-recorded per round)", res.Conflicts)
	}
}

// TestMDVacuousWithoutMaster: MD rules are skipped when no master relation
// is supplied, and reported as resolved (vacuously).
func TestMDVacuousWithoutMaster(t *testing.T) {
	dschema := relation.NewSchema("R", "name", "code")
	mschema := relation.NewSchema("M", "name", "code")
	data := relation.New(dschema)
	data.Append("bob", "k1")
	data.SetAllConf(0.9)
	m := md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Eq("name", "name")},
		[]md.PairSpec{{Data: "code", Master: "code"}})
	res := Run(data, nil, rule.Derive(nil, []*md.MD{m}), DefaultOptions())
	if len(res.Fixes) != 0 || len(res.Unresolved) != 0 {
		t.Errorf("vacuous MD produced fixes %v, unresolved %v", res.Fixes, res.Unresolved)
	}
}

// TestConfidencePropagation: the fix confidence is the fuzzy minimum of the
// equality-premise cells, so a premise cell just above eta caps the fix.
func TestConfidencePropagation(t *testing.T) {
	dschema := relation.NewSchema("R", "name", "code")
	mschema := relation.NewSchema("M", "name", "code")
	data := relation.New(dschema)
	tp := data.Append("bob", "wrong")
	tp.Conf[0] = 0.85
	tp.Conf[1] = 0.99
	master := relation.New(mschema)
	master.Append("bob", "right")
	master.SetAllConf(1)
	m := md.New("psi", dschema, mschema,
		[]md.ClauseSpec{md.Eq("name", "name")},
		[]md.PairSpec{{Data: "code", Master: "code"}})
	res := Run(data, master, rule.Derive(nil, []*md.MD{m}), DefaultOptions())
	det := res.DeterministicFixes()
	if len(det) != 1 || det[0].Conf != 0.85 { //det:ok floateq exact propagation check: the conf is copied from the premise, not recomputed
		t.Fatalf("fixes = %v, want one fix with conf 0.85", det)
	}
}

// TestRunOuterFixpoint pins the outer loop of Run: an eRepair write whose
// plurality confidence reaches eta enables an MD premise no rule could use
// in the first pass, so only a second cRepair pass can apply the master
// value. A single-pass pipeline certifies this instance dirty even though
// the engine itself can clean it on a re-run.
func TestRunOuterFixpoint(t *testing.T) {
	dschema := relation.NewSchema("R", "K", "A", "B")
	mschema := relation.NewSchema("M", "A", "B")

	data := relation.New(dschema)
	for i := 0; i < 4; i++ {
		data.Append("k", "a0", "b0")
	}
	data.Append("k", "ax", "bx")
	data.SetAllConf(0.5)

	master := relation.New(mschema)
	master.Append("a0", "b0")
	master.SetAllConf(1)

	cfds, mds, err := rule.ParseRules(dschema, mschema, `
cfd K -> A
md A=A -> B=B
`)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	res := Run(data, master, rule.Derive(cfds, mds), DefaultOptions())

	// eRepair equalizes A on "a0" with plurality confidence 4/5 = 0.8 = eta;
	// the next pass's cRepair matches t4 against master through that cell
	// and repairs B deterministically.
	got := res.Data.Tuples[4]
	if got.Values[2] != "b0" {
		t.Errorf("t4[B] = %q, want %q via the second cRepair pass", got.Values[2], "b0")
	}
	if got.Marks[2] != relation.FixDeterministic {
		t.Errorf("t4[B] mark = %v, want deterministic", got.Marks[2])
	}
	if len(res.Unresolved) != 0 {
		t.Errorf("unresolved = %v, want none", res.Unresolved)
	}
	if !res.Report.Clean() {
		t.Errorf("report not certified clean:\n%s", res.Report)
	}
}

// TestBatchEngineDeleted pins the update API's read side on a batch engine:
// an engine built by New has no stream state, so Deleted reports false for
// every id — before and after the pipeline ran — instead of dereferencing
// tombstones it never had.
func TestBatchEngineDeleted(t *testing.T) {
	in := genInstance(3)
	e := New(in.relation(nil), nil, in.rules, DefaultOptions())
	for pass := 0; pass < 2; pass++ {
		for id := -1; id <= len(in.rows); id++ {
			if e.Deleted(id) {
				t.Errorf("pass %d: batch Deleted(%d) = true, want false", pass, id)
			}
		}
		e.Finish()
	}
}

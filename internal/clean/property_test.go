package clean

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/rule"
)

// propInstance is one randomized dirty instance: a relation over small
// attribute domains plus a CFD rule set. Confidences stay below eta, so no
// cell ever freezes and the tri-level pipeline is obliged to reach a fully
// consistent instance (hRepair's retraction fallback is always available).
// master is nil except in genPremiseInstance's corpus, which adds MDs.
type propInstance struct {
	seed   int64
	schema *relation.Schema
	rows   [][]string
	confs  [][]float64
	rules  []rule.Rule
	master *relation.Relation
}

// genInstance derives a dirty instance deterministically from seed.
func genInstance(seed int64) *propInstance {
	rng := rand.New(rand.NewSource(seed))
	attrs := []string{"A", "B", "C", "D"}
	schema := relation.NewSchema("R", attrs...)

	// Small active domains force collisions, hence CFD conflicts.
	domains := make([][]string, len(attrs))
	for a := range attrs {
		n := 2 + rng.Intn(3)
		for v := 0; v < n; v++ {
			domains[a] = append(domains[a], fmt.Sprintf("%s%d", strings.ToLower(attrs[a]), v))
		}
	}

	inst := &propInstance{seed: seed, schema: schema}
	tuples := 4 + rng.Intn(21)
	for i := 0; i < tuples; i++ {
		row := make([]string, len(attrs))
		conf := make([]float64, len(attrs))
		for a := range attrs {
			if rng.Intn(12) == 0 {
				row[a] = relation.Null
			} else {
				row[a] = domains[a][rng.Intn(len(domains[a]))]
			}
			conf[a] = rng.Float64() * 0.75 // below eta: nothing freezes
		}
		inst.rows = append(inst.rows, row)
		inst.confs = append(inst.confs, conf)
	}

	var cfds []*cfd.CFD
	nConst := rng.Intn(3)
	for k := 0; k < nConst; k++ {
		lhs, rhs := rng.Intn(len(attrs)), rng.Intn(len(attrs))
		if lhs == rhs {
			rhs = (rhs + 1) % len(attrs)
		}
		cfds = append(cfds, cfd.New(fmt.Sprintf("const%d", k), schema,
			[]string{attrs[lhs]}, []string{domains[lhs][rng.Intn(len(domains[lhs]))]},
			attrs[rhs], domains[rhs][rng.Intn(len(domains[rhs]))]))
	}
	nVar := 1 + rng.Intn(2)
	for k := 0; k < nVar; k++ {
		lhs, rhs := rng.Intn(len(attrs)), rng.Intn(len(attrs))
		if lhs == rhs {
			rhs = (rhs + 1) % len(attrs)
		}
		cfds = append(cfds, cfd.FD(fmt.Sprintf("fd%d", k), schema,
			[]string{attrs[lhs]}, attrs[rhs]))
	}
	inst.rules = rule.Derive(cfds, nil)
	return inst
}

// genMultiInstance is genInstance's data and constant CFDs under variable
// CFDs with two-attribute LHSs, which genInstance never draws: one or two
// FDs XY -> Z, and one CFD with a constant in its LHS pattern
// (X=x0, Y -> Z). The rules come from their own stream, so genInstance's
// draws for a seed are untouched.
func genMultiInstance(seed int64) *propInstance {
	in := genInstance(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x2a77))
	attrs := in.schema.Attrs
	var cfds []*cfd.CFD
	for _, r := range in.rules {
		if r.Kind == rule.ConstantCFD {
			cfds = append(cfds, r.CFD)
		}
	}
	nVar := 2 + rng.Intn(2)
	for k := 0; k < nVar; k++ {
		p := rng.Perm(len(attrs))
		x, y, z := attrs[p[0]], attrs[p[1]], attrs[p[2]]
		pat := []string{cfd.Wildcard, cfd.Wildcard}
		if k == 0 {
			pat[0] = strings.ToLower(x) + "0" // every domain holds its 0 value
		}
		cfds = append(cfds, cfd.New(fmt.Sprintf("fd%d", k), in.schema,
			[]string{x, y}, pat, z, cfd.Wildcard))
	}
	in.rules = rule.Derive(cfds, nil)
	return in
}

// relation builds the instance's data relation, optionally keeping only the
// tuples whose index is marked in keep (nil keeps all) — the handle the
// shrinker uses to drop tuples.
func (in *propInstance) relation(keep []bool) *relation.Relation {
	d := relation.New(in.schema)
	for i, row := range in.rows {
		if keep != nil && !keep[i] {
			continue
		}
		t := d.Append(row...)
		copy(t.Conf, in.confs[i])
	}
	return d
}

// check runs the pipeline on the (possibly shrunk) instance and returns a
// description of the first property violation, or "" when all hold.
func (in *propInstance) check(keep []bool) string {
	data := in.relation(keep)
	res := Run(data, nil, in.rules, DefaultOptions())

	if rep := NewChecker(in.rules, nil).Check(res.Data); len(rep.CFDViolations()) > 0 {
		return fmt.Sprintf("checker reports %d CFD violations after full pipeline:\n%s",
			len(rep.CFDViolations()), rep)
	}
	// Marks follow the last writer: a cell hRepair wrote stays FixPossible
	// unless a later pass upgraded it — by overwriting it (a newer fix
	// record carrying its own mark) or by deterministically asserting its
	// value once rising confidences allowed. Marks never fall back to
	// untouched.
	last := make(map[[2]int]relation.FixMark)
	for _, f := range res.Fixes {
		last[[2]int{f.Tuple, f.Attr}] = f.Mark
	}
	for k, want := range last { //det:ok maporder each cell check is independent; pass/fail is identical for any order
		got := res.Data.Tuples[k[0]].Marks[k[1]]
		if got != want && got != relation.FixDeterministic {
			return fmt.Sprintf("cell t%d[%s] has mark %v, want %v (its last writer) or an assert upgrade",
				k[0], res.Data.Schema.Attrs[k[1]], got, want)
		}
	}
	// Cleaning is idempotent: a second run over the repaired instance finds
	// nothing left to fix.
	if again := Run(res.Data, nil, in.rules, DefaultOptions()); len(again.Fixes) > 0 {
		return fmt.Sprintf("second run is not a no-op: %v", again.Fixes)
	}
	return ""
}

// shrink greedily removes tuples while the failure persists and returns the
// minimized keep mask plus the failure it still exhibits.
func (in *propInstance) shrink() ([]bool, string) {
	keep := make([]bool, len(in.rows))
	for i := range keep {
		keep[i] = true
	}
	fail := in.check(keep)
	for changed := true; changed; {
		changed = false
		for i := range keep {
			if !keep[i] {
				continue
			}
			keep[i] = false
			if f := in.check(keep); f != "" {
				fail = f
				changed = true
			} else {
				keep[i] = true
			}
		}
	}
	return keep, fail
}

// TestPropertyPipelineReachesConsistency is the randomized oracle for the
// tri-level pipeline: over seeded dirty instances, Run (cRepair → eRepair →
// hRepair, looped to the outer fixpoint) must yield a relation the Checker
// certifies free of CFD violations, every written cell must carry its last
// writer's mark (possibly upgraded to deterministic by a later assert), and
// re-running must be a no-op. On failure the instance is shrunk and printed
// with its seed so the run can be replayed.
func TestPropertyPipelineReachesConsistency(t *testing.T) {
	const seeds = 400
	for seed := int64(0); seed < seeds; seed++ {
		in := genInstance(seed)
		if fail := in.check(nil); fail != "" {
			keep, minFail := in.shrink()
			var b strings.Builder
			fmt.Fprintf(&b, "seed %d fails: %s\nminimized instance:\n", seed, minFail)
			for _, r := range in.rules {
				fmt.Fprintf(&b, "  rule %s: %s\n", r.Name(), r.CFD)
			}
			for i, row := range in.rows {
				if keep[i] {
					fmt.Fprintf(&b, "  t%d: %v (conf %.2f)\n", i, row, in.confs[i])
				}
			}
			t.Fatal(b.String())
		}
	}
}

// TestPropertyRetractionRespectsTrust pins hRepair's only destructive move:
// with a frozen RHS forcing retraction, an untrusted LHS cell is nulled —
// but when every LHS cell is trusted (conf >= eta), the violation must be
// left standing rather than destroy trusted data.
func TestPropertyRetractionRespectsTrust(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B")
	rules := rule.Derive([]*cfd.CFD{
		cfd.New("phi1", schema, []string{"A"}, []string{"1"}, "B", "x"),
		cfd.New("phi2", schema, []string{"A"}, []string{"1"}, "B", "y"),
	}, nil)

	// Untrusted LHS: phi1 freezes B at eta, phi2 retracts A to null.
	data := relation.New(schema)
	tp := data.Append("1", "zzz")
	tp.Conf[0], tp.Conf[1] = 0.79, 0.9
	res := Run(data, nil, rules, DefaultOptions())
	if got := res.Data.Tuples[0].Values[0]; !relation.IsNull(got) {
		t.Errorf("A = %q, want null (retracted)", got)
	}
	if got := res.Data.Tuples[0].Marks[0]; got != relation.FixPossible {
		t.Errorf("A mark = %v, want possible", got)
	}
	if len(res.Unresolved) != 0 {
		t.Errorf("unresolved = %v, want none after retraction", res.Unresolved)
	}

	// Trusted LHS: no retraction; the losing rule stays unresolved and the
	// checker certifies the violation.
	data = relation.New(schema)
	data.Append("1", "zzz")
	data.SetAllConf(0.9)
	res = Run(data, nil, rules, DefaultOptions())
	if got := res.Data.Tuples[0].Values[0]; got != "1" {
		t.Errorf("trusted A = %q, want untouched", got)
	}
	if len(res.Unresolved) != 1 {
		t.Errorf("unresolved = %v, want exactly the losing constant CFD", res.Unresolved)
	}
	if res.Report.Clean() {
		t.Error("report must certify the remaining violation")
	}
}

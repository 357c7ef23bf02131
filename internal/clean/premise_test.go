package clean

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cfd"
	"repro/internal/gen"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
)

// genPremiseInstance derives, from seed, an instance whose rules write the
// equality premises of its MDs: master data over the data schema's
// attributes, an MD A=A -> B, D normalized into two sibling rules sharing
// one index, an MD B=B ^ C=C -> D whose premise the first MD and the CFDs
// write, a mixed premise A=A ^ C~C whose buckets must still be verified,
// and CFDs concluding A, B or C. Confidences straddle eta, so the MDs fire
// in cRepair and hRepair's master tie-breaks probe them; nulls in data and
// master reach the null buckets.
func genPremiseInstance(seed int64) *propInstance {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3a))
	attrs := []string{"A", "B", "C", "D"}
	schema := relation.NewSchema("R", attrs...)
	value := func(a int) string {
		if rng.Intn(12) == 0 {
			return relation.Null
		}
		return fmt.Sprintf("%c%d", 'a'+a, rng.Intn(4))
	}
	in := &propInstance{seed: seed, schema: schema}
	for i, n := 0, 4+rng.Intn(21); i < n; i++ {
		row := make([]string, len(attrs))
		conf := make([]float64, len(attrs))
		for a := range attrs {
			row[a] = value(a)
			conf[a] = 0.5 + 0.5*rng.Float64()
		}
		in.rows = append(in.rows, row)
		in.confs = append(in.confs, conf)
	}
	in.master = relation.New(relation.NewSchema("M", attrs...))
	for j, n := 0, 2+rng.Intn(5); j < n; j++ {
		row := make([]string, len(attrs))
		for a := range attrs {
			row[a] = value(a)
		}
		in.master.Append(row...)
	}
	in.master.SetAllConf(1)

	ms := in.master.Schema
	mds := []*md.MD{
		md.New("mdA", schema, ms, []md.ClauseSpec{md.Eq("A", "A")},
			[]md.PairSpec{{Data: "B", Master: "B"}, {Data: "D", Master: "D"}}),
		md.New("mdBC", schema, ms, []md.ClauseSpec{md.Eq("B", "B"), md.Eq("C", "C")},
			[]md.PairSpec{{Data: "D", Master: "D"}}),
	}
	if rng.Intn(2) == 0 {
		mds = append(mds, md.New("mdAC", schema, ms,
			[]md.ClauseSpec{md.Eq("A", "A"), md.Sim("C", "C", similarity.EditWithin(1))},
			[]md.PairSpec{{Data: "B", Master: "B"}}))
	}
	cfds := []*cfd.CFD{cfd.FD("fdAC", schema, []string{"A"}, "C")}
	if rng.Intn(2) == 0 {
		cfds = append(cfds, cfd.New("constDB", schema, []string{"D"}, []string{"d0"}, "B", "b1"))
	}
	if rng.Intn(2) == 0 {
		cfds = append(cfds, cfd.FD("fdDA", schema, []string{"D"}, "A"))
	}
	in.rules = rule.Derive(cfds, mds)
	return in
}

// premDrift returns a description of the first premise column of e that
// differs from a fresh resolve of the live relation — every tuple's
// projection hashed into its index's keys — or "" when every column is
// exact. Every equality index's matchers must read a column.
func premDrift(e *Engine) string {
	for ri, x := range e.matchers {
		if x == nil || x.buckets == nil {
			continue
		}
		if len(x.col) != e.data.Len() {
			return fmt.Sprintf("%s: column of %d ids for %d tuples", e.rules[ri].Name(), len(x.col), e.data.Len())
		}
		for i, t := range e.data.Tuples {
			want, ok := x.keys[t.Key(x.eqDataAttrs)]
			if !ok {
				want = noBucket
			}
			if x.col[i] != want {
				return fmt.Sprintf("%s: t%d %v resolves to bucket %d, column says %d", e.rules[ri].Name(), i, t.Values, want, x.col[i])
			}
		}
	}
	return ""
}

// premiseWrites counts the fixes of res that wrote an attribute some MD of
// rules reads through an equality clause.
func premiseWrites(res *Result, rules []rule.Rule) int {
	n := 0
	for _, f := range res.Fixes {
		for _, r := range rules {
			if r.Kind == rule.MatchMD && slices.ContainsFunc(r.MD.LHS, func(cl md.Clause) bool {
				return cl.Pred.Exact && cl.DataAttr == f.Attr
			}) {
				n++
				break
			}
		}
	}
	return n
}

// TestPremiseColumnsStayExact checks every premise column against a fresh
// resolve after every phase of every outer pass over the premise-writing
// corpus — in every fault mode, where the columns are built on fan-out
// workers, and under the rescan reference — and after every accepted
// stream update, whose sub-engines resolve their columns over reused
// indexes. The matchers read the columns without hashing, so a stale
// column would silently match the wrong master tuples.
func TestPremiseColumnsStayExact(t *testing.T) {
	const seeds = 400
	type mode struct {
		name  string
		build func(in *propInstance) *Engine
	}
	var modes []mode
	for _, m := range faultModes() {
		modes = append(modes, mode{m.name, func(in *propInstance) *Engine {
			return New(in.relation(nil), in.master, in.rules, m.opts)
		}})
	}
	modes = append(modes, mode{"rescan", func(in *propInstance) *Engine {
		return newRescanEngine(in.relation(nil), in.master, in.rules, DefaultOptions())
	}})
	writes := 0
	for _, m := range modes {
		for seed := int64(0); seed < seeds; seed++ {
			in := genPremiseInstance(seed)
			e := m.build(in)
			if d := premDrift(e); d != "" {
				t.Fatalf("seed %d %s, built: %s", seed, m.name, d)
			}
			for pass := 0; pass < 1+e.data.Len()*e.data.Schema.Arity(); pass++ {
				before := len(e.res.Fixes) + e.res.Asserts
				for _, ph := range []struct {
					name string
					run  func()
				}{{"cRepair", e.CRepair}, {"eRepair", e.ERepair}, {"hRepair", e.HRepair}} {
					ph.run()
					if d := premDrift(e); d != "" {
						t.Fatalf("seed %d %s, pass %d after %s: %s", seed, m.name, pass, ph.name, d)
					}
				}
				if len(e.res.Fixes)+e.res.Asserts == before {
					break
				}
			}
			writes += premiseWrites(e.res, e.rules)
		}
	}
	if writes < seeds {
		t.Fatalf("the corpus wrote premise attributes %d times over %d runs; the check is too weak", writes, len(modes)*seeds)
	}
	for _, m := range faultModes() {
		for seed := int64(0); seed < seeds; seed++ {
			in := genPremiseInstance(seed)
			e, err := NewStream(in.relation(nil), in.master, in.rules, m.opts)
			if err != nil {
				t.Fatalf("%s seed %d: NewStream: %v", m.name, seed, err)
			}
			for oi, u := range genOps(len(in.rows), seed) {
				vals, conf := u.Values, u.Conf
				if u.Delete {
					vals, conf = make([]string, in.schema.Arity()), nil
				}
				sub, err := e.subEngine(context.Background(), e.stream.with(u.ID, vals, conf), u.ID)
				if err != nil {
					t.Fatalf("%s seed %d op %d: subEngine: %v", m.name, seed, oi, err)
				}
				if d := premDrift(sub); d != "" {
					t.Fatalf("%s seed %d op %d (%+v), built: %s", m.name, seed, oi, u, d)
				}
				if _, err := sub.runAll(); err != nil {
					t.Fatalf("%s seed %d op %d: sub-run: %v", m.name, seed, oi, err)
				}
				if d := premDrift(sub); d != "" {
					t.Fatalf("%s seed %d op %d (%+v): %s", m.name, seed, oi, u, d)
				}
				if u.Delete {
					_, err = e.Delete(u.ID)
				} else {
					_, err = e.Upsert(u.ID, u.Values, u.Conf)
				}
				if err != nil {
					t.Fatalf("%s seed %d op %d rejected: %v", m.name, seed, oi, err)
				}
			}
		}
	}
}

// TestPropertyIncrementalEquivalencePremiseWrites is the engine identity
// bar — rescan = sequential = forced-parallel, down to the work counters —
// over the premise-writing corpus, where MD lookups read premise columns
// that writes keep re-resolving.
func TestPropertyIncrementalEquivalencePremiseWrites(t *testing.T) {
	checkEngineIdentity(t, genPremiseInstance)
}

// unsharedRules returns the engine's ordered rules with every MD premise
// made distinct by a per-rule predicate name, so premiseOwners gives each
// MD rule an index of its own, as the engine did before rules with one
// premise shared an index. A predicate's name changes nothing it matches.
func unsharedRules(e *Engine) []rule.Rule {
	out := slices.Clone(e.rules)
	for i, r := range out {
		if r.Kind != rule.MatchMD {
			continue
		}
		m := *r.MD
		m.LHS = slices.Clone(m.LHS)
		for j := range m.LHS {
			m.LHS[j].Pred.Name += fmt.Sprintf("#%d", i)
		}
		out[i].MD = &m
	}
	return out
}

// TestSiblingRulesShareIndex pins the index sharing: the normalized
// siblings of one MD, and only rules with an equal premise, share one
// index in the engine and in NewChecker's checker, and a run over shared
// indexes matches a run over one index per rule fix for fix, with equal
// per-rule matcher statistics, applier counters and certified Report.
func TestSiblingRulesShareIndex(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize = 2000, 300
	inst := gen.Generate(cfg)
	type instance struct {
		name         string
		data, master *relation.Relation
		rules        []rule.Rule
	}
	cases := []instance{{"gen 2000/300", inst.Data, inst.Master, inst.Rules}}
	for seed := int64(0); seed < 50; seed++ {
		in := genPremiseInstance(seed)
		cases = append(cases, instance{fmt.Sprintf("premise seed %d", seed), in.relation(nil), in.master, in.rules})
	}
	for _, c := range cases {
		e := New(c.data, c.master, c.rules, DefaultOptions())
		ck := NewChecker(e.rules, c.master)
		for i, ri := range e.rules {
			for j, rj := range e.rules[:i] {
				if ri.Kind != rule.MatchMD || rj.Kind != rule.MatchMD {
					continue
				}
				same := slices.EqualFunc(ri.MD.LHS, rj.MD.LHS, func(a, b md.Clause) bool {
					return a.DataAttr == b.DataAttr && a.MasterAttr == b.MasterAttr && a.Pred.Name == b.Pred.Name
				})
				if (e.indexes[i] == e.indexes[j]) != same || (ck.indexes[i] == ck.indexes[j]) != same {
					t.Fatalf("%s: %s and %s: shared engine index %v, checker index %v, equal premises %v",
						c.name, ri.Name(), rj.Name(), e.indexes[i] == e.indexes[j], ck.indexes[i] == ck.indexes[j], same)
				}
			}
		}
		shared, err := e.runAll()
		if err != nil {
			t.Fatalf("%s: shared run: %v", c.name, err)
		}
		u := newEngine(context.Background(), c.data, c.master, unsharedRules(e), nil, DefaultOptions())
		for i, ix := range u.indexes {
			if ix != nil && slices.Index(u.indexes, ix) != i {
				t.Fatalf("%s: %s shares an index in the unshared run", c.name, u.rules[i].Name())
			}
		}
		unshared, err := u.runAll()
		if err != nil {
			t.Fatalf("%s: unshared run: %v", c.name, err)
		}
		if d := diffParallel(shared, unshared); d != "" {
			t.Fatalf("%s: shared and unshared indexes disagree: %s", c.name, d)
		}
	}
	// The gen instance's md_provider normalizes into three siblings.
	e := New(inst.Data, inst.Master, inst.Rules, DefaultOptions())
	distinct := 0
	for i, ix := range e.indexes {
		if ix != nil && slices.Index(e.indexes, ix) == i {
			distinct++
		}
	}
	if n := len(e.res.Match); n != 4 || distinct != 2 {
		t.Fatalf("gen instance: %d MD rules over %d distinct indexes, want 4 over 2", n, distinct)
	}
}

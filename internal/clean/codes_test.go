package clean

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/rule"
)

// codesDrift returns a description of the first cell whose code does not
// decode to the live value, or of a dictionary that is not a bijection, or
// "" when every coded column of e is exact. Exactly the attributes the
// variable CFDs read must be coded.
func codesDrift(e *Engine) string {
	want := make([]bool, e.data.Schema.Arity())
	for _, r := range e.rules {
		if r.Kind == rule.VariableCFD {
			want[r.CFD.RHS] = true
			for _, a := range r.CFD.LHS {
				want[a] = true
			}
		}
	}
	for a, col := range e.codes {
		if (col != nil) != want[a] {
			return fmt.Sprintf("attribute %d coded = %v, want %v", a, col != nil, want[a])
		}
		if col == nil {
			continue
		}
		if col.strs[nullCode] != relation.Null || len(col.ids) != len(col.strs) {
			return fmt.Sprintf("attribute %d: %d ids for %d strings, code 0 = %q", a, len(col.ids), len(col.strs), col.strs[nullCode])
		}
		for c, v := range col.strs {
			if col.ids[v] != int32(c) {
				return fmt.Sprintf("attribute %d: %q has id %d but sits at code %d", a, v, col.ids[v], c)
			}
		}
		if len(col.code) != e.data.Len() {
			return fmt.Sprintf("attribute %d: %d codes for %d tuples", a, len(col.code), e.data.Len())
		}
		for i, t := range e.data.Tuples {
			if got := col.strs[col.code[i]]; got != t.Values[a] {
				return fmt.Sprintf("t%d[%d]: code %d decodes to %q, live value %q", i, a, col.code[i], got, t.Values[a])
			}
		}
	}
	return ""
}

// TestCellCodesStayExact checks the dictionary against the live relation
// after every phase of every outer pass over both property corpora — under
// the delta scheduler, the rescan reference and forced fan-outs, where
// the build fan-out codes the columns on its workers — and after
// every accepted stream update. The rescan reference and the delta engine
// share groupEntropy and the group appliers' counting, so a stale code
// would otherwise pass every identity suite.
func TestCellCodesStayExact(t *testing.T) {
	const seeds = 400
	type mode struct {
		name  string
		build func(data *relation.Relation, rules []rule.Rule) *Engine
	}
	var modes []mode
	for _, m := range faultModes() {
		modes = append(modes, mode{m.name, func(data *relation.Relation, rules []rule.Rule) *Engine {
			return New(data, nil, rules, m.opts)
		}})
	}
	modes = append(modes, mode{"rescan", func(data *relation.Relation, rules []rule.Rule) *Engine {
		return newRescanEngine(data, nil, rules, DefaultOptions())
	}})
	for _, c := range []struct {
		name string
		gen  func(int64) *propInstance
	}{{"single", genInstance}, {"multi", genMultiInstance}} {
		for _, m := range modes {
			for seed := int64(0); seed < seeds; seed++ {
				in := c.gen(seed)
				e := m.build(in.relation(nil), in.rules)
				if d := codesDrift(e); d != "" {
					t.Fatalf("%s seed %d %s, built: %s", c.name, seed, m.name, d)
				}
				for pass := 0; pass < 1+e.data.Len()*e.data.Schema.Arity(); pass++ {
					before := len(e.res.Fixes) + e.res.Asserts
					for _, ph := range []struct {
						name string
						run  func()
					}{{"cRepair", e.CRepair}, {"eRepair", e.ERepair}, {"hRepair", e.HRepair}} {
						ph.run()
						if d := codesDrift(e); d != "" {
							t.Fatalf("%s seed %d %s, pass %d after %s: %s", c.name, seed, m.name, pass, ph.name, d)
						}
					}
					if len(e.res.Fixes)+e.res.Asserts == before {
						break
					}
				}
			}
		}
	}
	// Streams: each update runs a sub-engine built as rebase builds it —
	// the candidate base, the stream's MD indexes, a patched copy of its
	// kept codes — then commits the same update through the API so the
	// next candidate starts from the accepted base.
	for _, m := range faultModes() {
		for seed := int64(0); seed < seeds; seed++ {
			in := genInstance(seed)
			e, err := NewStream(in.relation(nil), nil, in.rules, m.opts)
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
				if _, err := sub.runAll(); err != nil {
					t.Fatalf("%s seed %d op %d: sub-run: %v", m.name, seed, oi, err)
				}
				if d := codesDrift(sub); d != "" {
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

// entropyRef is groupEntropy written over strings: a map of counts and the
// values in first-appearance order, summed in that order.
func entropyRef(d *relation.Relation, a int, members []int) (float64, int) {
	count := make(map[string]int)
	var order []string
	for _, i := range members {
		v := d.Tuples[i].Values[a]
		if _, ok := count[v]; !ok {
			order = append(order, v)
		}
		count[v]++
	}
	h := 0.0
	for _, v := range order {
		p := float64(count[v]) / float64(len(members))
		h -= p * math.Log2(p)
	}
	return h, len(order)
}

// TestGroupEntropyMatchesReference pins the coded entropy bit for bit to
// the string reference: random groups in random member order over domains
// from one value to more than the linear-scan limit, with nulls, plus
// singletons and a 6,000-member group with thousands of distinct values.
func TestGroupEntropyMatchesReference(t *testing.T) {
	schema := relation.NewSchema("R", "K", "V")
	rules := rule.Derive([]*cfd.CFD{cfd.FD("fd", schema, []string{"K"}, "V")}, nil)
	rng := rand.New(rand.NewSource(1))
	d := relation.New(schema)
	for i := 0; i < 20000; i++ {
		v := relation.Null
		if rng.Intn(10) > 0 {
			v = fmt.Sprintf("v%d", rng.Intn(5000))
		}
		d.Append("k", v)
	}
	col := newCellCodes(rules, d)[1]
	check := func(name string, members []int) {
		t.Helper()
		h, n := groupEntropy(col, members)
		wh, wn := entropyRef(d, 1, members)
		if math.Float64bits(h) != math.Float64bits(wh) || n != wn {
			t.Fatalf("%s (%d members): entropy %v (%d distinct), reference %v (%d distinct)", name, len(members), h, n, wh, wn)
		}
	}
	for i := 0; i < 50; i++ {
		check("singleton", []int{rng.Intn(d.Len())})
	}
	for _, span := range []int{1, 3, 10, 40, scanMax + 1, 100, 400} {
		for rep := 0; rep < 200; rep++ {
			// Members drawn from a window of rows keep the distinct count
			// near span; the window start varies the values.
			lo := rng.Intn(d.Len() - span)
			members := make([]int, 1+rng.Intn(3*span))
			for k := range members {
				members[k] = lo + rng.Intn(span)
			}
			check(fmt.Sprintf("span %d", span), members)
		}
	}
	big := rng.Perm(d.Len())[:6000]
	if _, n := groupEntropy(col, big); n <= 64 {
		t.Fatalf("6,000-member group has %d distinct values; want far more than 64", n)
	}
	check("6,000 members", big)
}

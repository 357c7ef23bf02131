package clean

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/rule"
)

// keptDrift compares a stream's kept derived state with a fresh derivation
// over its committed base, newEngine's, and describes the first
// difference, or returns "". Code and group numbering may differ between
// the two, so codes are compared decoded and groups by their member lists;
// the premise columns' bucket ids come from the shared indexes and are
// compared as they are.
func keptDrift(e *Engine) string {
	st := e.stream
	kept := st.kept
	fresh := newEngine(context.Background(), st.base, e.master, e.rules, st.indexes, e.opts).derived
	n := st.base.Len()
	if !slices.Equal(kept.sched.all, identity(n)) {
		return fmt.Sprintf("identity listing has %d entries for %d tuples", len(kept.sched.all), n)
	}
	for a, want := range fresh.codes {
		got := kept.codes[a]
		if (got == nil) != (want == nil) {
			return fmt.Sprintf("attribute %d coded %v, want %v", a, got != nil, want != nil)
		}
		if got == nil {
			continue
		}
		if len(got.code) != n {
			return fmt.Sprintf("attribute %d: %d codes for %d tuples", a, len(got.code), n)
		}
		for c, v := range got.strs {
			if got.ids[v] != int32(c) {
				return fmt.Sprintf("attribute %d: code %d names %q, which maps to %d", a, c, v, got.ids[v])
			}
		}
		if len(got.ids) != len(got.strs) {
			return fmt.Sprintf("attribute %d: %d map entries for %d codes", a, len(got.ids), len(got.strs))
		}
		for i := range n {
			if g, w := got.strs[got.code[i]], want.strs[want.code[i]]; g != w {
				return fmt.Sprintf("attribute %d, t%d: kept code decodes to %q, want %q", a, i, g, w)
			}
		}
	}
	for ri, want := range fresh.sched.gidx {
		got := kept.sched.gidx[ri]
		if want == nil {
			continue
		}
		if d := groupsDrift(got, want, st.base); d != "" {
			return fmt.Sprintf("%s: %s", e.rules[ri].Name(), d)
		}
	}
	for ri, want := range fresh.prem {
		got := kept.prem[ri]
		if (got == nil) != (want == nil) || got != nil && !slices.Equal(got.ids, want.ids) {
			return fmt.Sprintf("%s: premise column drifted", e.rules[ri].Name())
		}
	}
	return ""
}

// groupsDrift compares two group indexes over d by membership: every
// tuple in a group in one is in a group in the other, each group's key
// names its members' LHS projection, and the two hold the same member
// lists.
func groupsDrift(got, want *groupIndex, d *relation.Relation) string {
	lists := func(gi *groupIndex) (map[string][]int, string) {
		out := make(map[string][]int)
		for sym, g := range gi.groups {
			if g == nil || len(g.members) == 0 {
				continue
			}
			for _, i := range g.members {
				if gi.key[i] != int32(sym) {
					return nil, fmt.Sprintf("t%d is in group %d but keyed %d", i, sym, gi.key[i])
				}
				if k := d.Tuples[i].Key(gi.c.LHS); k != g.key {
					return nil, fmt.Sprintf("t%d has LHS %q in group %q", i, k, g.key)
				}
			}
			out[g.key] = g.members
		}
		return out, ""
	}
	if len(got.key) != d.Len() {
		return fmt.Sprintf("%d group keys for %d tuples", len(got.key), d.Len())
	}
	g, msg := lists(got)
	if msg != "" {
		return msg
	}
	w, _ := lists(want)
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("groups %v, want %v", g, w)
	}
	for i, sym := range got.key {
		if (sym >= 0) != (want.key[i] >= 0) {
			return fmt.Sprintf("t%d grouped %v, want %v", i, sym >= 0, want.key[i] >= 0)
		}
	}
	return ""
}

// keptDump renders a derived state raw, codes and symbols as numbered, so
// two dumps are equal exactly when nothing of the state was written.
func keptDump(d derived) string {
	var b strings.Builder
	for a, col := range d.codes {
		if col != nil {
			fmt.Fprintf(&b, "col %d %q %v %v\n", a, col.strs, col.code, col.ids)
		}
	}
	for ri, gi := range d.sched.gidx {
		if gi == nil {
			continue
		}
		fmt.Fprintf(&b, "gidx %d %v %v", ri, gi.key, gi.tuples)
		for sym, g := range gi.groups {
			if g != nil {
				fmt.Fprintf(&b, " %d:%q%v", sym, g.key, g.members)
			}
		}
		b.WriteByte('\n')
	}
	for ri, c := range d.prem {
		if c != nil {
			fmt.Fprintf(&b, "prem %d %v\n", ri, c.ids)
		}
	}
	fmt.Fprintf(&b, "all %v\n", d.sched.all)
	return b.String()
}

// TestKeptStateStaysExact is the kept-state bar: after every accepted
// update of the stream property corpus — the plain corpus and the premise
// corpus, whose equality MDs give the kept state premise columns — the
// codes, groups and premise columns the stream keeps must equal a fresh
// derivation over the committed base.
func TestKeptStateStaysExact(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	for _, corpus := range []struct {
		name string
		gen  func(int64) *propInstance
	}{{"plain", genInstance}, {"premise", genPremiseInstance}} {
		for _, m := range faultModes() {
			for seed := int64(0); seed < seeds; seed++ {
				in := corpus.gen(seed)
				e, err := NewStream(in.relation(nil), in.master, in.rules, m.opts)
				if err != nil {
					t.Fatalf("%s %s seed %d: NewStream: %v", corpus.name, m.name, seed, err)
				}
				if d := keptDrift(e); d != "" {
					t.Fatalf("%s %s seed %d, initial run: %s", corpus.name, m.name, seed, d)
				}
				for oi, u := range genOps(len(in.rows), seed) {
					if u.Delete {
						_, err = e.Delete(u.ID)
					} else {
						_, err = e.Upsert(u.ID, u.Values, u.Conf)
					}
					if err != nil {
						t.Fatalf("%s %s seed %d op %d rejected: %v", corpus.name, m.name, seed, oi, err)
					}
					if d := keptDrift(e); d != "" {
						t.Fatalf("%s %s seed %d op %d (%+v): %s", corpus.name, m.name, seed, oi, u, d)
					}
				}
			}
		}
	}
}

// TestKeptDictionariesAreRederived drives the re-derive rule: a stream
// whose every update brings values never seen before, over an FD and a
// two-attribute variable CFD, would grow the kept dictionaries and group
// symbols without bound. They must be re-derived from the base once dead
// entries outnumber live ones, so no update leaves more dead entries than
// live ones, and the stream must stay exact and on the oracle.
func TestKeptDictionariesAreRederived(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B", "C")
	rules := rule.Derive([]*cfd.CFD{
		cfd.FD("fd", schema, []string{"A"}, "B"),
		cfd.FD("fd2", schema, []string{"A", "B"}, "C"),
	}, nil)
	data := relation.New(schema)
	for i := range 8 {
		data.Append(fmt.Sprintf("a%d", i%3), fmt.Sprintf("b%d", i%2), "c")
	}
	data.SetAllConf(0.5)
	e, err := NewStream(data, nil, rules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	acc := data.Clone()
	rederived := 0
	for k := range 400 {
		id := k % data.Len()
		vals := []string{fmt.Sprintf("a%d", k+10), fmt.Sprintf("b%d", k/2), "c"}
		if k%5 == 0 {
			vals[0] = "a0" // a live value too, now and then
		}
		before := len(e.stream.kept.codes[0].strs)
		res, err := e.Upsert(id, vals, []float64{0.5, 0.5, 0.5})
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		acc.Tuples[id].Values = vals
		if d := diffParallel(res, Run(acc, nil, rules, DefaultOptions())); d != "" {
			t.Fatalf("update %d: %s", k, d)
		}
		if d := keptDrift(e); d != "" {
			t.Fatalf("update %d: %s", k, d)
		}
		kept := e.stream.kept
		if len(kept.codes[0].strs) < before {
			rederived++
		}
		for a, col := range kept.codes {
			if col != nil && col.sparse() {
				t.Fatalf("update %d: attribute %d keeps %d codes for %d tuples", k, a, len(col.strs), data.Len())
			}
		}
		for ri, gi := range kept.sched.gidx {
			if gi != nil && gi.sparse() {
				t.Fatalf("update %d: %s keeps %d group symbols", k, rules[ri].Name(), len(gi.groups))
			}
		}
	}
	if rederived < 10 {
		t.Fatalf("the kept state was re-derived %d times over 400 updates of new values, want at least 10", rederived)
	}
}

// TestStreamFailureContract composes the kept state with the fault
// injector: faults armed at every copy and patch step of an update
// (SiteRebase) and at the run's own sites. After every failed update the
// kept state, the base and the Result must be bit-unchanged; after every
// accepted one the base must equal the oracle's raw base cell for cell,
// and the kept state a fresh derivation over it. Every step must fire.
func TestStreamFailureContract(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	configs := []faultConfig{
		{"panic-rebase", false, []fault.Rule{{Site: fault.SiteRebase, Kind: fault.Panic, Rate: 0.1}}},
		{"cancel-rebase", false, []fault.Rule{{Site: fault.SiteRebase, Kind: fault.Cancel, Rate: 0.05}}},
		{"panic-apply", false, []fault.Rule{{Site: fault.SiteApply, Kind: fault.Panic, Rate: 0.02}}},
		{"panic-certify", false, []fault.Rule{{Site: fault.SiteCertify, Kind: fault.Panic, Rate: 0.1}}},
	}
	fired := make(map[int]bool) // SiteRebase steps whose panic an update returned
	for _, m := range faultModes() {
		for seed := int64(0); seed < seeds; seed++ {
			in := genPremiseInstance(seed)
			for _, cfg := range configs {
				opts := m.opts
				inj := fault.New(seed, cfg.rules...)
				opts.Fault = inj
				e, err := NewStream(in.relation(nil), in.master, in.rules, opts)
				if err != nil {
					continue // the initial run is RunContext's, covered elsewhere
				}
				st := e.stream
				acc := in.relation(nil)
				for oi, u := range genOps(len(in.rows), seed) {
					at := fmt.Sprintf("%s seed %d %s op %d", m.name, seed, cfg.name, oi)
					kept, base, res := keptDump(st.kept), snapshot(st.base), resultDump(e.Result())
					ctx, cancel := context.WithCancel(context.Background())
					inj.OnCancel(cancel)
					if u.Delete {
						_, err = e.DeleteContext(ctx, u.ID)
					} else {
						_, err = e.UpsertContext(ctx, u.ID, u.Values, u.Conf)
					}
					cancel()
					if err != nil {
						if !typedFailure(err) && !errors.Is(err, ErrBadUpdate) {
							t.Fatalf("%s: untyped error: %v", at, err)
						}
						var p *fault.Injected
						if errors.As(err, &p) && p.Site == fault.SiteRebase {
							fired[p.A] = true
						}
						if keptDump(st.kept) != kept {
							t.Fatalf("%s: failed update wrote the kept state", at)
						}
						if !reflect.DeepEqual(snapshot(st.base), base) {
							t.Fatalf("%s: failed update wrote the base", at)
						}
						if resultDump(e.Result()) != res {
							t.Fatalf("%s: failed update wrote the Result", at)
						}
						continue
					}
					u.Apply(acc)
					if !reflect.DeepEqual(snapshot(st.base), snapshot(acc)) {
						t.Fatalf("%s: the committed base differs from the oracle's raw base", at)
					}
					if d := keptDrift(e); d != "" {
						t.Fatalf("%s: %s", at, d)
					}
				}
				if d := diffParallel(e.Result(), Run(acc, in.master, in.rules, m.opts)); d != "" {
					t.Fatalf("%s seed %d %s: final state diverged from the oracle: %s", m.name, seed, cfg.name, d)
				}
			}
		}
	}
	for step := range 5 {
		if !fired[step] {
			t.Errorf("no update failed at rebase step %d; the sweep does not cover it", step)
		}
	}
}

// resultDump renders a Result for bit-exact comparison: its JSON, which
// holds the data with every confidence and mark, plus the Report.
func resultDump(r *Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return string(b) + r.Report.String()
}

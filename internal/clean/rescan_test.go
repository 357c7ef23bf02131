package clean

import (
	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/rule"
)

// The full-rescan reference engine: every cRepair and hRepair round
// re-applies every rule to every tuple, and eRepair re-groups whole rules
// after each resolution, as in the original engine. It computes the same
// fixpoint as the delta scheduler by brute force, so the identity suites
// hold the production engine fix-for-fix to it. It lives in test code: the
// engine only ever runs the delta scheduler.

// newRescanEngine is New on one worker with the rescan reference swapped in
// for the delta scheduler New built.
func newRescanEngine(data, master *relation.Relation, rules []rule.Rule, opts Options) *Engine {
	opts.Workers = 1
	e := New(data, master, rules, opts)
	e.work = newRescan(e.rules, e.data)
	return e
}

// runRescan is Run on the rescan reference engine.
func runRescan(data, master *relation.Relation, rules []rule.Rule, opts Options) *Result {
	res, err := newRescanEngine(data, master, rules, opts).runAll()
	if err != nil {
		panic(err)
	}
	return res
}

// rescan is the full-rescan reference worklist: every call hands out every
// tuple, or every group as cfd.Groups derives it from the relation. It
// builds no index and shares no state with the scheduler it is the oracle
// for.
type rescan struct {
	data  *relation.Relation
	rules []rule.Rule
	all   []int // identity listing 0..Len-1

	// eRepair re-groups a whole rule at the start of each call and after
	// every resolution that wrote an attribute the rule reads.
	readers [][]int    // attribute -> variable CFDs reading it
	stale   []bool     // per rule: read attribute written since last regroup
	handed  [][]string // per rule: group keys regroup handed out last time
}

func newRescan(rules []rule.Rule, d *relation.Relation) *rescan {
	r := &rescan{
		data:    d,
		rules:   rules,
		all:     identity(d.Len()),
		readers: make([][]int, d.Schema.Arity()),
		stale:   make([]bool, len(rules)),
		handed:  make([][]string, len(rules)),
	}
	for ri, rl := range rules {
		if rl.Kind != rule.VariableCFD {
			continue
		}
		for a, in := range ruleReadSet(rl, d.Schema.Arity()) {
			if in {
				r.readers[a] = append(r.readers[a], ri)
			}
		}
	}
	return r
}

func (r *rescan) tuples(_, _ int) []int { return r.all }

func (r *rescan) groups(_, ri int) ([][]int, bool) {
	gs := cfd.Groups(r.data, r.rules[ri].CFD)
	out := make([][]int, len(gs))
	for k, g := range gs {
		out[k] = g.Members
	}
	return out, true
}

// regroup hands out every group of every variable CFD due a refresh, plus
// the keys it handed out for that rule last time whose groups have since
// dissolved, so their tree entries are dropped.
func (r *rescan) regroup(start bool) []keyedGroup {
	var out []keyedGroup
	for ri, rl := range r.rules {
		if rl.Kind != rule.VariableCFD || !(start || r.stale[ri]) {
			continue
		}
		r.stale[ri] = false
		live := make(map[string]bool)
		var keys []string
		for _, g := range cfd.Groups(r.data, rl.CFD) {
			out = append(out, keyedGroup{ri: ri, key: g.Key, sym: -1, members: g.Members})
			live[g.Key] = true
			keys = append(keys, g.Key)
		}
		for _, k := range r.handed[ri] {
			if !live[k] {
				out = append(out, keyedGroup{ri: ri, key: k, sym: -1})
			}
		}
		r.handed[ri] = keys
	}
	return out
}

func (r *rescan) extracted(keyedGroup) {}

func (r *rescan) noteWrite(_, a int, _ *relation.Tuple, _ bool) {
	for _, ri := range r.readers[a] {
		r.stale[ri] = true
	}
}

func (r *rescan) setActive(_, _, _ int) {}

func (r *rescan) clearActive() {}

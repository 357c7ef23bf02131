package clean

import (
	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/rule"
)

// DefaultHBudget is the per-cell change budget of HRepair used when
// Options.HBudget is zero: how many times hRepair may rewrite one cell
// before it stops trusting value propagation for it and falls back to
// retraction.
const DefaultHBudget = 3

// HRepair is the heuristic phase that runs after CRepair and ERepair have
// converged: any CFD violation still standing has no deterministic or
// reliable fix, so the engine picks a repair value heuristically and marks
// the write FixPossible. It iterates to a fixpoint over all CFD rules:
//
//   - a constant-CFD violation writes the pattern constant into the RHS
//     cell;
//   - a variable-CFD group with disagreeing RHS values is rewritten to the
//     majority value weighted by cell confidence, with ties broken first by
//     plain counts, then by master-data support through the MD blocking
//     indexes, then lexicographically;
//   - when the target cell is frozen (FixDeterministic) or its change
//     budget is exhausted, the violation is instead dissolved by retracting
//     an untrusted LHS cell to null — pattern tuples never match null, so
//     the tuple leaves the rule's scope.
//
// Termination is guaranteed: every pass that does not terminate the loop
// performs at least one write, each cell accepts at most HBudget value
// writes, and each retraction nulls a currently non-null cell (a cell is
// only re-nulled after a budgeted rewrite), so the total number of writes
// is bounded by |D|·arity·(2·HBudget+1). A violation whose RHS is frozen
// and whose LHS cells are all trusted (confidence >= Eta) or frozen is left
// standing for the Checker to report.
//
// Scheduling mirrors CRepair: hRepair's first round visits every tuple and
// group (seeding its own worklists, independent of cRepair's); later rounds
// — and later outer passes of Run — visit only the tuples and groups
// written since hRepair last saw them. Options.Rescan restores the full
// re-scan of every round. Each rule's visit runs inline, like cRepair's.
func (e *Engine) HRepair() {
	for {
		// Same round-granularity cancellation points as CRepair.
		if e.interrupted() || e.exhausted() {
			return
		}
		e.res.HRounds++
		seeded := e.hSeeded
		writes := 0
		for ri, r := range e.rules {
			if e.interrupted() {
				return
			}
			full := e.opts.Rescan || !seeded
			switch r.Kind {
			case rule.ConstantCFD:
				var ids []int
				if full {
					if e.sched != nil {
						e.sched.clearTuples(phaseH, ri)
					}
					ids = e.allTupleIDs()
				} else {
					ids = e.sched.takeTuples(phaseH, ri)
				}
				writes += e.applyTuples(phaseH, ri, ids, func(i int) int {
					return e.hConstantTuple(ri, r.CFD, i)
				})
			case rule.VariableCFD:
				switch {
				case full && e.sched != nil:
					// Seeding round: groups come from the persistent index,
					// violating ones filtered the way ViolatingGroups would.
					e.sched.clearGroups(phaseH, ri)
					writes += e.applyGroups(phaseH, ri, e.sched.allGroups(ri), func(members []int) int {
						if !conflictedMembers(e.data, r.CFD.RHS, members) {
							return 0
						}
						return e.hVariableGroup(ri, r.CFD, members)
					})
				case full:
					for _, g := range cfd.ViolatingGroups(e.data, r.CFD) {
						writes += e.hVariableGroup(ri, r.CFD, g.Members)
					}
				default:
					writes += e.applyGroups(phaseH, ri, e.sched.takeGroups(phaseH, ri), func(members []int) int {
						if !conflictedMembers(e.data, r.CFD.RHS, members) {
							// Examined but conflict-free: counted here, since
							// only hVariableGroup counts the groups it runs on.
							e.apply[ri].HTuples += len(members)
							return 0
						}
						return e.hVariableGroup(ri, r.CFD, members)
					})
				}
			}
		}
		e.hSeeded = true
		if writes == 0 {
			return
		}
	}
}

// conflictedMembers reports whether the members hold more than one distinct
// RHS value (null counts as a value), i.e. the group is a standing violation.
func conflictedMembers(d *relation.Relation, a int, members []int) bool {
	first := d.Tuples[members[0]].Values[a]
	for _, i := range members[1:] {
		if d.Tuples[i].Values[a] != first {
			return true
		}
	}
	return false
}

// hConstantTuple repairs tuple i against a constant CFD if it violates it:
// the pattern constant is forced, so the only heuristic decision is whether
// to write it or to retract the tuple from the rule's scope.
func (e *Engine) hConstantTuple(ri int, c *cfd.CFD, i int) int {
	e.apply[ri].HTuples++
	t := e.data.Tuples[i]
	if !c.MatchLHS(t) || t.Values[c.RHS] == c.RHSPattern {
		return 0
	}
	if t.Marks[c.RHS] != relation.FixDeterministic && e.spend(i, c.RHS) {
		return e.hfix(i, c.RHS, c.RHSPattern, minConfAt(t, c.LHS), c.Name)
	}
	return e.retract(i, c)
}

// hVariableGroup repairs one disagreeing LHS-equal group of a variable CFD
// by equalizing it on a heuristically chosen target value.
func (e *Engine) hVariableGroup(ri int, c *cfd.CFD, members []int) int {
	e.apply[ri].HTuples += len(members)
	writes := 0
	a := c.RHS
	frozen := make(map[string]int) // frozen value -> frozen member count
	for _, i := range members {
		t := e.data.Tuples[i]
		if t.Marks[a] == relation.FixDeterministic {
			frozen[t.Values[a]]++
		}
	}
	if len(frozen) > 1 {
		// Disagreeing deterministic fixes cannot be equalized, only
		// shrunk. Retract only the members frozen at minority values
		// from the rule's scope: the plurality frozen value (ties
		// broken lexicographically) survives as the next round's
		// forced target, so the majority's data is kept.
		keep := ""
		for v, n := range frozen { //det:ok maporder strict total order (count, value) picks the same survivor from any visit order
			if keep == "" || n > frozen[keep] || (n == frozen[keep] && v < keep) {
				keep = v
			}
		}
		for _, i := range members {
			t := e.data.Tuples[i]
			if t.Marks[a] == relation.FixDeterministic && t.Values[a] != keep {
				writes += e.retract(i, c)
			}
		}
		return writes
	}
	var target string
	var conf float64
	if len(frozen) == 1 {
		// A single frozen value dictates the target; the confidence of
		// the heuristic copies is the plurality fraction of the group,
		// as in eRepair — not the frozen source's, and never 1: the
		// copies are still guesses.
		for v := range frozen { //det:ok maporder single-entry map: len(frozen) == 1 on this branch
			target = v
		}
		n := 0
		for _, i := range members {
			if e.data.Tuples[i].Values[a] == target {
				n++
			}
		}
		conf = float64(n) / float64(len(members))
	} else {
		target, conf = e.hTarget(c, members)
		if target == "" {
			return 0 // every cell is null: nothing to propagate
		}
	}
	for _, i := range members {
		t := e.data.Tuples[i]
		if t.Values[a] == target {
			continue
		}
		if t.Marks[a] != relation.FixDeterministic && e.spend(i, a) {
			writes += e.hfix(i, a, target, conf, c.Name)
		} else {
			writes += e.retract(i, c)
		}
	}
	return writes
}

// hTarget picks the repair value for a disagreeing group: the value with
// the largest total cell confidence, with ties broken by plain occurrence
// count, then by support from master data via the MD blocking indexes, and
// finally lexicographically so the choice is deterministic — the chain is a
// strict total order, so the map iteration order underneath can never show
// (pinned by TestHTargetTieBreakDeterminism). The returned confidence is
// the plurality fraction of the group, as in eRepair.
func (e *Engine) hTarget(c *cfd.CFD, members []int) (string, float64) {
	a := c.RHS
	count := make(map[string]int)
	confSum := make(map[string]float64)
	for _, i := range members {
		t := e.data.Tuples[i]
		if v := t.Values[a]; !relation.IsNull(v) {
			count[v]++
			confSum[v] += t.Conf[a]
		}
	}
	var master map[string]bool // lazily built on the first tie
	inMaster := func(v string) bool {
		if master == nil {
			master = e.masterSuggestions(a, members)
		}
		return master[v]
	}
	target := ""
	for v := range count { //det:ok maporder strict total order (quantized conf, count, master support, value) pinned by TestHTargetTieBreakDeterminism
		if target == "" {
			target = v
			continue
		}
		qv, qt := quantConf(confSum[v]), quantConf(confSum[target])
		switch {
		case qv > qt,
			qv == qt && count[v] > count[target],
			qv == qt && count[v] == count[target] &&
				inMaster(v) && !inMaster(target),
			qv == qt && count[v] == count[target] &&
				inMaster(v) == inMaster(target) && v < target:
			target = v
		}
	}
	if target == "" {
		return "", 0
	}
	return target, float64(count[target]) / float64(len(members))
}

// masterSuggestions collects the master values offered for data attribute a
// by the MD blocking indexes, restricted to the candidates of the group's
// members. These are the values a match rule would write if its premise
// ever came to hold, so among otherwise equally supported repair values
// they are the better guess.
func (e *Engine) masterSuggestions(a int, members []int) map[string]bool {
	out := make(map[string]bool)
	for ri, r := range e.rules {
		if r.Kind != rule.MatchMD || e.matchers[ri] == nil {
			continue
		}
		for _, p := range r.MD.RHS {
			if p.DataAttr != a {
				continue
			}
			for _, i := range members {
				for _, j := range e.matchers[ri].probe(e.data.Tuples[i], e.opts.TopL) {
					if v := e.master.Tuples[j].Values[p.MasterAttr]; !relation.IsNull(v) {
						out[v] = true
					}
				}
			}
		}
	}
	return out
}

// retract dissolves a violation involving tuple i of CFD c by nulling one
// of the tuple's LHS cells: pattern tuples never match null, so the tuple
// leaves every group of c. Only untrusted cells are eligible: frozen cells
// never, and untouched source cells only when their confidence is below
// Eta — but cells the engine itself wrote (reliable or possible fixes) are
// always fair game, since their confidence is a derived plurality fraction,
// not source evidence. Among eligible cells the least confident is chosen.
// Returns 0 when no cell is eligible; the violation then stands and the
// Checker will report it.
func (e *Engine) retract(i int, c *cfd.CFD) int {
	t := e.data.Tuples[i]
	pick := -1
	for _, b := range c.LHS {
		if t.Marks[b] == relation.FixDeterministic {
			continue
		}
		if t.Marks[b] == relation.FixNone && t.Conf[b] >= e.opts.Eta {
			continue
		}
		if relation.IsNull(t.Values[b]) {
			continue
		}
		if pick < 0 || t.Conf[b] < t.Conf[pick] {
			pick = b
		}
	}
	if pick < 0 {
		return 0
	}
	return e.hfix(i, pick, relation.Null, 0, c.Name+" (retract)")
}

// hfix writes value v to cell (i, a) as a possible fix with confidence
// conf, recording it in the result. The caller must have checked that the
// cell is not frozen and that v differs from the current value.
func (e *Engine) hfix(i, a int, v string, conf float64, ruleName string) int {
	t := e.data.Tuples[i]
	e.res.Fixes = append(e.res.Fixes, Fix{
		Tuple: i, Attr: a, Attribute: e.data.Schema.Attrs[a],
		Old: t.Values[a], New: v, Conf: conf,
		Mark: relation.FixPossible, Rule: ruleName,
	})
	t.Set(a, v, conf, relation.FixPossible)
	e.noteWrite(i, a)
	return 1
}

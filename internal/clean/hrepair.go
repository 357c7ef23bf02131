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
// Scheduling mirrors CRepair: each round hands every rule what its worklist
// returns for the hRepair phase, which the delta scheduler tracks
// independently of cRepair's. Its first round visits every tuple and group;
// later rounds — and later outer passes of Run — visit only the tuples and
// groups written since hRepair last saw them. The test-only rescan
// reference hands out everything every round. Each rule's visit runs inline, like
// cRepair's.
func (e *Engine) HRepair() {
	for {
		// Same round-granularity cancellation points as CRepair.
		if e.interrupted() || e.exhausted() {
			return
		}
		e.res.HRounds++
		writes := 0
		for ri, r := range e.rules {
			if e.interrupted() {
				return
			}
			switch r.Kind {
			case rule.ConstantCFD:
				writes += e.applyTuples(phaseH, ri, e.work.tuples(phaseH, ri), func(i int) int {
					return e.hConstantTuple(ri, r.CFD, i)
				})
			case rule.VariableCFD:
				gs, full := e.work.groups(phaseH, ri)
				writes += e.applyGroups(phaseH, ri, gs, func(members []int) int {
					if !conflictedMembers(e.codes[r.CFD.RHS], members) {
						// Examined but conflict-free. A full listing bills
						// only the conflicted groups; a delta listing bills
						// every group it hands out, since only
						// hVariableGroup counts the groups it runs on.
						if !full {
							e.apply[ri].HTuples += len(members)
						}
						return 0
					}
					return e.hVariableGroup(ri, r.CFD, members)
				})
			}
		}
		if writes == 0 {
			return
		}
	}
}

// conflictedMembers reports whether the members hold more than one distinct
// value of the coded RHS column col (null counts as a value), i.e. the
// group is a standing violation.
func conflictedMembers(col *column, members []int) bool {
	first := col.code[members[0]]
	for _, i := range members[1:] {
		if col.code[i] != first {
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
		return e.write(i, c.RHS, c.RHSPattern, minConfAt(t, c.LHS), relation.FixPossible, c.Name)
	}
	return e.retract(i, c)
}

// hVariableGroup repairs one disagreeing LHS-equal group of a variable CFD
// by equalizing it on a heuristically chosen target value.
func (e *Engine) hVariableGroup(ri int, c *cfd.CFD, members []int) int {
	e.apply[ri].HTuples += len(members)
	writes := 0
	a, col := c.RHS, e.codes[c.RHS]
	var frozen tally // frozen values and their member counts
	for _, i := range members {
		if e.data.Tuples[i].Marks[a] == relation.FixDeterministic {
			frozen = frozen.add(col.code[i], 0)
		}
	}
	if len(frozen.slots) > 1 {
		// Disagreeing deterministic fixes cannot be equalized, only
		// shrunk. Retract only the members frozen at minority values
		// from the rule's scope: the plurality frozen value (ties
		// broken lexicographically) survives as the next round's
		// forced target, so the majority's data is kept.
		keep := frozen.slots[0]
		for _, s := range frozen.slots[1:] {
			if s.n > keep.n || (s.n == keep.n && col.strs[s.code] < col.strs[keep.code]) {
				keep = s
			}
		}
		for _, i := range members {
			if e.data.Tuples[i].Marks[a] == relation.FixDeterministic && col.code[i] != keep.code {
				writes += e.retract(i, c)
			}
		}
		return writes
	}
	var target int32 // code of the target value
	var conf float64
	if len(frozen.slots) == 1 {
		// A single frozen value dictates the target; the confidence of
		// the heuristic copies is the plurality fraction of the group,
		// as in eRepair — not the frozen source's, and never 1: the
		// copies are still guesses.
		target = frozen.slots[0].code
		n := 0
		for _, i := range members {
			if col.code[i] == target {
				n++
			}
		}
		conf = float64(n) / float64(len(members))
	} else {
		target, conf = e.hTarget(c, members)
		if target == nullCode {
			return 0 // every cell is null: nothing to propagate
		}
	}
	v := col.strs[target]
	for _, i := range members {
		if col.code[i] == target {
			continue
		}
		if e.data.Tuples[i].Marks[a] != relation.FixDeterministic && e.spend(i, a) {
			writes += e.write(i, a, v, conf, relation.FixPossible, c.Name)
		} else {
			writes += e.retract(i, c)
		}
	}
	return writes
}

// hTarget picks the code of the repair value for a disagreeing group: the
// value with the largest total cell confidence, with ties broken by plain
// occurrence count, then by support from master data via the MD blocking
// indexes, and finally lexicographically — a strict total order, pinned by
// TestHTargetTieBreakDeterminism. The returned confidence is the plurality
// fraction of the group, as in eRepair; an all-null group returns nullCode.
func (e *Engine) hTarget(c *cfd.CFD, members []int) (int32, float64) {
	a, col := c.RHS, e.codes[c.RHS]
	var vals tally
	for _, i := range members {
		if v := col.code[i]; v != nullCode {
			vals = vals.add(v, e.data.Tuples[i].Conf[a])
		}
	}
	var master map[string]bool // lazily built on the first tie
	inMaster := func(code int32) bool {
		if master == nil {
			master = e.masterSuggestions(a, members)
		}
		return master[col.strs[code]]
	}
	if len(vals.slots) == 0 {
		return nullCode, 0
	}
	best := vals.slots[0]
	for _, s := range vals.slots[1:] {
		qv, qt := quantConf(s.conf), quantConf(best.conf)
		switch {
		case qv > qt,
			qv == qt && s.n > best.n,
			qv == qt && s.n == best.n && inMaster(s.code) && !inMaster(best.code),
			qv == qt && s.n == best.n && inMaster(s.code) == inMaster(best.code) &&
				col.strs[s.code] < col.strs[best.code]:
			best = s
		}
	}
	return best.code, float64(best.n) / float64(len(members))
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
				for _, j := range e.matchers[ri].probe(i, e.data.Tuples[i], e.opts.TopL) {
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
	return e.write(i, pick, relation.Null, 0, relation.FixPossible, c.Name+" (retract)")
}

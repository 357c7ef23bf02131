package clean

import (
	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
)

// CRepair is the confidence-based phase of Section 5: it applies the ordered
// cleaning rules repeatedly until no rule can make progress. Every fix it
// applies has propagated confidence at least η, is marked FixDeterministic,
// and freezes its cell for the rest of the pipeline. Because each applied
// fix or assertion freezes a previously mutable cell, the fixpoint is
// reached after at most |D|·arity productive passes.
//
// Scheduling: the first round visits every tuple of every rule (seeding the
// worklists); each later round hands a rule only the tuples and groups whose
// read attributes were written since the rule last saw them, which is the
// only place new firings can come from. With Options.Rescan, every round is
// a full visit, as in the reference engine. Each rule's visit runs inline
// (see parallel.go), rules one after another in rule.Order, so
// Options.Workers never shows in the result.
func (e *Engine) CRepair() {
	for {
		// Cancellation points sit at round granularity: a round already in
		// flight finishes, and a failed run discards its clone, so a cancel
		// can never expose a half-committed round.
		if e.interrupted() || e.exhausted() {
			return
		}
		e.res.Rounds++
		seeded := e.cSeeded
		progress := 0
		for ri, r := range e.rules {
			if e.interrupted() {
				return
			}
			if e.opts.Rescan || !seeded {
				progress += e.applyRuleFull(ri, r)
			} else {
				progress += e.applyRuleDelta(ri, r)
			}
		}
		e.cSeeded = true
		if progress == 0 || (e.opts.MaxRounds > 0 && e.res.Rounds >= e.opts.MaxRounds) {
			return
		}
	}
}

// applyRuleFull applies one rule to the whole relation: every rescan-mode
// round, and the delta engine's seeding round. The seeding round first
// drops the rule's pending cRepair marks (the full visit covers them) and
// reads variable-CFD groups out of the persistent index instead of
// re-grouping the relation; the reference engine has no scheduler and
// re-derives the grouping with cfd.Groups, which keeps it independent of
// the index it is the oracle for.
func (e *Engine) applyRuleFull(ri int, r rule.Rule) int {
	switch r.Kind {
	case rule.ConstantCFD:
		if e.sched != nil {
			e.sched.clearTuples(phaseC, ri)
		}
		return e.applyTuples(phaseC, ri, e.allTupleIDs(), func(i int) int {
			return e.constantCFDTuple(ri, r.CFD, i)
		})
	case rule.VariableCFD:
		if e.sched != nil {
			e.sched.clearGroups(phaseC, ri)
			return e.applyGroups(phaseC, ri, e.sched.allGroups(ri), func(members []int) int {
				return e.variableCFDGroup(ri, r.CFD, members)
			})
		}
		progress := 0
		for _, g := range cfd.Groups(e.data, r.CFD) {
			progress += e.variableCFDGroup(ri, r.CFD, g.Members)
		}
		return progress
	case rule.MatchMD:
		if e.sched != nil {
			e.sched.clearTuples(phaseC, ri)
		}
		return e.applyTuples(phaseC, ri, e.allTupleIDs(), func(i int) int {
			return e.matchMDTuple(ri, r.MD, i)
		})
	}
	return 0
}

// applyRuleDelta applies one rule to exactly the tuples/groups enqueued for
// it since its last visit. Writes made while processing re-enqueue their
// targets, so interacting rules still chase each other to the fixpoint.
func (e *Engine) applyRuleDelta(ri int, r rule.Rule) int {
	switch r.Kind {
	case rule.ConstantCFD:
		return e.applyTuples(phaseC, ri, e.sched.takeTuples(phaseC, ri), func(i int) int {
			return e.constantCFDTuple(ri, r.CFD, i)
		})
	case rule.VariableCFD:
		return e.applyGroups(phaseC, ri, e.sched.takeGroups(phaseC, ri), func(members []int) int {
			return e.variableCFDGroup(ri, r.CFD, members)
		})
	case rule.MatchMD:
		return e.applyTuples(phaseC, ri, e.sched.takeTuples(phaseC, ri), func(i int) int {
			return e.matchMDTuple(ri, r.MD, i)
		})
	}
	return 0
}

// constantCFDTuple writes the pattern constant tp[A] to tuple i if it
// matches tp[X] and its premise cells are trusted (min confidence >= η), per
// Section 3.1 rule (2).
func (e *Engine) constantCFDTuple(ri int, c *cfd.CFD, i int) int {
	e.apply[ri].CTuples++
	t := e.data.Tuples[i]
	if !c.MatchLHS(t) {
		return 0
	}
	conf := minConfAt(t, c.LHS)
	if conf < e.opts.Eta {
		return 0
	}
	switch {
	case t.Values[c.RHS] == c.RHSPattern:
		return e.assert(i, c.RHS, conf)
	case t.Marks[c.RHS] == relation.FixDeterministic:
		e.conflictf("%s: t%d[%s] is frozen at %q, cannot write %q",
			c.Name, i, e.data.Schema.Attrs[c.RHS], t.Values[c.RHS], c.RHSPattern)
		return 0
	default:
		return e.fix(i, c.RHS, c.RHSPattern, conf, c.Name)
	}
}

// variableCFDGroup propagates high-confidence RHS values within one
// LHS-equal group, per Section 3.1 rule (3): if the trusted cells of the
// group agree on a value, every member whose premise is trusted is updated
// to it. Groups whose trusted cells disagree are left for eRepair.
func (e *Engine) variableCFDGroup(ri int, c *cfd.CFD, members []int) int {
	e.apply[ri].CGroups++
	e.apply[ri].CTuples += len(members)
	// Pick the highest-confidence non-null RHS value as the source.
	bestConf, bestVal := -1.0, ""
	for _, i := range members {
		t := e.data.Tuples[i]
		if v := t.Values[c.RHS]; !relation.IsNull(v) && t.Conf[c.RHS] > bestConf {
			bestConf, bestVal = t.Conf[c.RHS], v
		}
	}
	if bestConf < e.opts.Eta {
		return 0
	}
	// If another trusted cell disagrees, the group is ambiguous: no
	// deterministic fix exists (eRepair will weigh the evidence).
	for _, i := range members {
		t := e.data.Tuples[i]
		v := t.Values[c.RHS]
		if !relation.IsNull(v) && v != bestVal && t.Conf[c.RHS] >= e.opts.Eta {
			e.conflictf("%s: group %q has trusted values %q and %q",
				c.Name, e.data.Tuples[members[0]].Key(c.LHS), bestVal, v)
			return 0
		}
	}
	progress := 0
	for _, i := range members {
		t := e.data.Tuples[i]
		pc := minConfAt(t, c.LHS)
		if pc < e.opts.Eta {
			continue
		}
		conf := pc
		if bestConf < conf {
			conf = bestConf
		}
		if t.Values[c.RHS] == bestVal {
			progress += e.assert(i, c.RHS, conf)
		} else if t.Marks[c.RHS] != relation.FixDeterministic {
			progress += e.fix(i, c.RHS, bestVal, conf, c.Name)
		}
	}
	return progress
}

// matchMDTuple copies master values into data tuple i when the MD premise
// matches, per Section 3.1 rule (1). Matching goes through the blocking
// indexes; the fix confidence is the fuzzy minimum over the
// equality-premise cells of the data tuple (similarity-tested cells
// contribute no confidence, and master data is clean by assumption).
func (e *Engine) matchMDTuple(ri int, m *md.MD, i int) int {
	x := e.matchers[ri]
	if x == nil {
		return 0 // no master data: the MD is vacuous
	}
	e.apply[ri].CTuples++
	e.fj.At(fault.SiteProbe, ri, i)
	t := e.data.Tuples[i]
	conf := minConfAt(t, x.eqDataAttrs)
	if conf < e.opts.Eta {
		return 0
	}
	progress := 0
	for _, j := range x.candidates(t, e.opts.TopL) {
		s := e.master.Tuples[j]
		for _, p := range m.RHS {
			v := s.Values[p.MasterAttr]
			if relation.IsNull(v) {
				continue
			}
			switch {
			case t.Values[p.DataAttr] == v:
				progress += e.assert(i, p.DataAttr, conf)
			case t.Marks[p.DataAttr] == relation.FixDeterministic:
				e.conflictf("%s: t%d[%s] is frozen at %q, master tuple %d says %q",
					m.Name, i, e.data.Schema.Attrs[p.DataAttr], t.Values[p.DataAttr], j, v)
			default:
				progress += e.fix(i, p.DataAttr, v, conf, m.Name)
			}
		}
	}
	return progress
}

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
// Scheduling: each round hands every rule the tuples or groups its
// worklist returns for the cRepair phase. The delta scheduler's worklists
// start with everything dirty, so the first round visits every tuple of
// every rule; each later round hands a rule only the tuples and groups
// whose read attributes were written since the rule last saw them, which
// is the only place new firings can come from. The test-only rescan
// reference hands out everything every round. Each rule's visit runs inline (see
// parallel.go), rules one after another in rule.Order, so Options.Workers
// never shows in the result.
func (e *Engine) CRepair() {
	for {
		// Cancellation points sit at round granularity: a round already in
		// flight finishes, and a failed run discards its clone, so a cancel
		// can never expose a half-committed round.
		if e.interrupted() || e.exhausted() {
			return
		}
		e.res.Rounds++
		progress := 0
		for ri, r := range e.rules {
			if e.interrupted() {
				return
			}
			progress += e.applyRule(ri, r)
		}
		if progress == 0 {
			return
		}
	}
}

// applyRule applies one rule to the tuples or groups its worklist hands
// out. Writes made while processing re-enqueue their targets, so
// interacting rules still chase each other to the fixpoint.
func (e *Engine) applyRule(ri int, r rule.Rule) int {
	switch r.Kind {
	case rule.ConstantCFD:
		return e.applyTuples(phaseC, ri, e.work.tuples(phaseC, ri), func(i int) int {
			return e.constantCFDTuple(ri, r.CFD, i)
		})
	case rule.VariableCFD:
		gs, _ := e.work.groups(phaseC, ri)
		return e.applyGroups(phaseC, ri, gs, func(members []int) int {
			return e.variableCFDGroup(ri, r.CFD, members)
		})
	case rule.MatchMD:
		return e.applyTuples(phaseC, ri, e.work.tuples(phaseC, ri), func(i int) int {
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
		return e.write(i, c.RHS, c.RHSPattern, conf, relation.FixDeterministic, c.Name)
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
	col, bestConf, best := e.codes[c.RHS], -1.0, int32(nullCode)
	for _, i := range members {
		if v, cf := col.code[i], e.data.Tuples[i].Conf[c.RHS]; v != nullCode && cf > bestConf {
			bestConf, best = cf, v
		}
	}
	if bestConf < e.opts.Eta {
		return 0
	}
	// If another trusted cell disagrees, the group is ambiguous: no
	// deterministic fix exists (eRepair will weigh the evidence).
	for _, i := range members {
		if v := col.code[i]; v != nullCode && v != best && e.data.Tuples[i].Conf[c.RHS] >= e.opts.Eta {
			e.conflictf("%s: group %q has trusted values %q and %q",
				c.Name, e.data.Tuples[members[0]].Key(c.LHS), col.strs[best], col.strs[v])
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
		if col.code[i] == best {
			progress += e.assert(i, c.RHS, conf)
		} else if t.Marks[c.RHS] != relation.FixDeterministic {
			progress += e.write(i, c.RHS, col.strs[best], conf, relation.FixDeterministic, c.Name)
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
				progress += e.write(i, p.DataAttr, v, conf, relation.FixDeterministic, m.Name)
			}
		}
	}
	return progress
}

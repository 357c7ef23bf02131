package clean

import (
	"sort"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/rule"
)

// This file implements the incremental fixpoint core: instead of re-applying
// every rule to every tuple on every round, the engine maintains (1) a
// reverse dependency map from attributes to the rules whose premise or
// conclusion reads them, (2) a persistent per-rule group index for variable
// CFDs, kept in sync under every engine write rather than rebuilt by
// cfd.Groups each round, and (3) per-phase worklists of dirty tuples and
// groups. The first round of each phase seeds the worklist with everything;
// afterwards a rule is handed exactly the tuples/groups whose read attributes
// were written since the rule last saw them.
//
// Correctness rests on a quiescence argument checked by the equivalence
// property suite: a tuple or group none of whose read cells (value,
// confidence or mark) changed since a rule last processed it cannot newly
// fire that rule — re-processing it is a no-op that records nothing — so
// skipping it leaves Fixes, Asserts, Conflicts and the certified Report
// byte-for-byte identical to the full-rescan reference (Options.Rescan).
//
// Group keys are interned: each distinct LHS projection string maps to a
// dense int32 symbol once, and the index, the dirty sets and the per-tuple
// key cache all hash and compare symbols. Key strings were the write path's
// hot spot — every noteWrite to an LHS attribute rebuilt the projection
// string and re-hashed it into the groups map plus one dirty map per
// consumer phase.

// Worklist consumer phases. cRepair and hRepair each consume tuple- and
// group-level dirtiness independently; eRepair consumes group-level
// dirtiness only (it re-keys affected groups in its entropy tree).
const (
	phaseC = iota
	phaseE
	phaseH
	numPhases
)

// symtab interns the LHS projection keys of one variable CFD: key strings
// are stored once and handled as dense int32 symbols afterwards.
type symtab struct {
	ids  map[string]int32
	strs []string
	buf  []byte // reusable key-building scratch; hits allocate nothing
}

func newSymtab() *symtab { return &symtab{ids: make(map[string]int32)} }

// intern returns the symbol of t's projection on attrs.
func (s *symtab) intern(t *relation.Tuple, attrs []int) int32 {
	s.buf = relation.AppendKey(s.buf[:0], t, attrs)
	if id, ok := s.ids[string(s.buf)]; ok {
		return id
	}
	key := string(s.buf)
	id := int32(len(s.strs))
	s.ids[key] = id
	s.strs = append(s.strs, key)
	return id
}

// str returns the key string behind a symbol.
func (s *symtab) str(id int32) string { return s.strs[id] }

// dirtySet is a generation-stamped dirty-tuple set: one per (per-tuple rule,
// consumer phase). It replaced map[int]bool after profiles showed
// mapassign_fast64 dominating the write path (ROADMAP (i)) — noteWrite marks
// a tuple on every engine write, so marking must be an array stamp, not a
// hash insert. A tuple is marked when its stamp equals the current
// generation; draining bumps the generation instead of clearing, so there is
// no per-round reallocation or sweep.
type dirtySet struct {
	stamp []uint64 // per tuple: generation at which it was last marked
	gen   uint64   // current generation; stamp[i] == gen means marked
	items []int    // marked tuples in insertion order, deduped via stamp
}

func newDirtySet(n int) *dirtySet {
	return &dirtySet{stamp: make([]uint64, n), gen: 1}
}

// mark adds tuple i to the set; re-marking is a cheap no-op.
func (s *dirtySet) mark(i int) {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.items = append(s.items, i)
	}
}

// take drains the set and returns the marked tuples in ascending order —
// the order a full scan visits them, as takeTuples always promised.
func (s *dirtySet) take() []int {
	if len(s.items) == 0 {
		return nil
	}
	out := make([]int, len(s.items))
	copy(out, s.items)
	sort.Ints(out)
	s.clear()
	return out
}

// clear empties the set in O(1) by advancing the generation.
func (s *dirtySet) clear() {
	s.gen++
	s.items = s.items[:0]
}

// igroup is one LHS-equal group of a variable CFD in the persistent index.
// Members are tuple indexes kept sorted ascending, matching the relation
// order that cfd.Groups produces.
type igroup struct {
	key     int32
	members []int
}

func (g *igroup) insert(i int) {
	k := sort.SearchInts(g.members, i)
	g.members = append(g.members, 0)
	copy(g.members[k+1:], g.members[k:])
	g.members[k] = i
}

func (g *igroup) remove(i int) {
	k := sort.SearchInts(g.members, i)
	if k < len(g.members) && g.members[k] == i {
		g.members = append(g.members[:k], g.members[k+1:]...)
	}
}

// groupIndex is the persistent LHS-key -> members index of one variable CFD,
// equivalent at every instant to cfd.Groups over the current relation state.
// It additionally tracks, per consumer phase, the keys of groups touched by
// a write since that phase last took them.
type groupIndex struct {
	c      *cfd.CFD
	syms   *symtab
	member []bool  // per tuple: currently matches the LHS pattern
	key    []int32 // per tuple: current group key symbol, valid when member
	groups map[int32]*igroup
	dirty  [numPhases]map[int32]bool
}

func newGroupIndex(c *cfd.CFD, d *relation.Relation) *groupIndex {
	gi := &groupIndex{
		c:      c,
		syms:   newSymtab(),
		member: make([]bool, d.Len()),
		key:    make([]int32, d.Len()),
		groups: make(map[int32]*igroup),
	}
	for p := range gi.dirty {
		gi.dirty[p] = make(map[int32]bool)
	}
	for i, t := range d.Tuples {
		if c.MatchLHS(t) {
			gi.place(i, gi.syms.intern(t, c.LHS))
		}
	}
	return gi
}

func (gi *groupIndex) place(i int, key int32) {
	g := gi.groups[key]
	if g == nil {
		g = &igroup{key: key}
		gi.groups[key] = g
	}
	g.insert(i)
	gi.member[i], gi.key[i] = true, key
}

func (gi *groupIndex) markDirty(key int32) {
	for p := range gi.dirty {
		gi.dirty[p][key] = true
	}
}

// update re-derives tuple i's membership after a write to attribute a and
// marks the affected group keys dirty for every consumer phase. Confidence-
// and mark-only writes (asserts) keep the key but still dirty the group,
// since they change premise trust and resolution choices.
func (gi *groupIndex) update(i, a int, t *relation.Tuple) {
	if hasAttr(gi.c.LHS, a) {
		newMember := gi.c.MatchLHS(t)
		newKey := int32(-1)
		if newMember {
			newKey = gi.syms.intern(t, gi.c.LHS)
		}
		switch {
		case newMember != gi.member[i] || (newMember && newKey != gi.key[i]):
			if gi.member[i] {
				old := gi.groups[gi.key[i]]
				old.remove(i)
				if len(old.members) == 0 {
					delete(gi.groups, old.key)
				}
				gi.markDirty(gi.key[i])
			}
			gi.member[i], gi.key[i] = false, -1
			if newMember {
				gi.place(i, newKey)
				gi.markDirty(newKey)
			}
		case gi.member[i]:
			gi.markDirty(gi.key[i])
		}
	}
	if a == gi.c.RHS && gi.member[i] {
		gi.markDirty(gi.key[i])
	}
}

// takeKeys drains and returns the dirty group keys of one consumer phase,
// in ascending symbol order. Every consumer happens to derive
// order-independent state from the keys (AVL entries keyed by (entropy, id),
// sorted group listings, summed counters) — PR 4 audited exactly that by
// hand — but sorting removes the argument: the keys leave here deterministic
// and no future consumer can silently start depending on map order.
func (gi *groupIndex) takeKeys(phase int) []int32 {
	if len(gi.dirty[phase]) == 0 {
		return nil
	}
	out := make([]int32, 0, len(gi.dirty[phase]))
	for k := range gi.dirty[phase] { //det:ok maporder keys are sorted ascending below before anyone sees them
		out = append(out, k)
	}
	gi.dirty[phase] = make(map[int32]bool)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scheduler is the engine's worklist state: the reverse dependency map and,
// per rule, either a persistent group index (variable CFDs) or per-phase
// dirty tuple sets (constant CFDs and MDs).
type scheduler struct {
	rules     []rule.Rule
	attrRules [][]int       // attribute -> indexes of rules reading it
	gidx      []*groupIndex // parallel to rules; nil unless VariableCFD
	lhsSet    []map[int]bool
	dirtyC    []*dirtySet // per-tuple rules: cRepair consumer worklist
	dirtyH    []*dirtySet // per-tuple rules: hRepair consumer worklist

	// attrHExtra maps an attribute to the variable-CFD rules whose hRepair
	// target choice reads it indirectly: hTarget breaks ties by master-data
	// support, probing the MD blocking indexes with the group members'
	// premise cells. A write to an MD premise attribute can therefore flip
	// the repair target of a variable CFD whose RHS that MD writes, even
	// though the attribute is in neither the CFD's LHS nor RHS — so it must
	// re-enqueue the member's group for the hRepair consumer.
	attrHExtra [][]int

	// The per-tuple applier currently running, or activeRule < 0. A write
	// by a per-tuple rule to a pure-conclusion attribute (one not in its own
	// premise) of the tuple it is processing is not re-enqueued for that
	// rule in the writing phase: the applier runs its full switch, so
	// re-processing the tuple unchanged is a no-op — the written cell now
	// matches the target and is frozen or budget-tracked, and conflicts are
	// deduplicated. Writes to premise attributes, writes to other tuples,
	// and the other phase's marks are never skipped.
	activePhase, activeRule, activeTuple int
}

// newScheduler computes the reverse dependency map once from the ordered rule
// set and builds the variable-CFD group indexes over the (cloned) data. A
// rule "reads" its premise attributes and its conclusion attribute: a write
// to either can change whether and how the rule fires on the tuple.
func newScheduler(rules []rule.Rule, d *relation.Relation) *scheduler {
	s := &scheduler{
		rules:      rules,
		attrRules:  make([][]int, d.Schema.Arity()),
		gidx:       make([]*groupIndex, len(rules)),
		lhsSet:     make([]map[int]bool, len(rules)),
		dirtyC:     make([]*dirtySet, len(rules)),
		dirtyH:     make([]*dirtySet, len(rules)),
		activeRule: -1,
	}
	for ri, r := range rules {
		s.lhsSet[ri] = make(map[int]bool)
		for _, a := range r.LHSAttrs() {
			s.lhsSet[ri][a] = true
		}
		for a, in := range ruleReadSet(r, d.Schema.Arity()) {
			if in {
				s.attrRules[a] = append(s.attrRules[a], ri)
			}
		}
		if r.Kind == rule.VariableCFD {
			s.gidx[ri] = newGroupIndex(r.CFD, d)
		} else {
			s.dirtyC[ri] = newDirtySet(d.Len())
			s.dirtyH[ri] = newDirtySet(d.Len())
		}
	}
	s.attrHExtra = make([][]int, d.Schema.Arity())
	for ri, r := range rules {
		if r.Kind != rule.VariableCFD {
			continue
		}
		for _, m := range rules {
			if m.Kind != rule.MatchMD {
				continue
			}
			writesRHS := false
			for _, p := range m.MD.RHS {
				if p.DataAttr == r.CFD.RHS {
					writesRHS = true
				}
			}
			if !writesRHS {
				continue
			}
			for _, cl := range m.MD.LHS {
				a := cl.DataAttr
				if s.lhsSet[ri][a] || a == r.CFD.RHS || hasAttr(s.attrHExtra[a], ri) {
					continue // already a direct read, or already recorded
				}
				s.attrHExtra[a] = append(s.attrHExtra[a], ri)
			}
		}
	}
	return s
}

// setActive marks the per-tuple applier about to run; clearActive ends it.
func (s *scheduler) setActive(phase, ri, i int) {
	s.activePhase, s.activeRule, s.activeTuple = phase, ri, i
}

func (s *scheduler) clearActive() { s.activeRule = -1 }

// noteWrite propagates one cell write (i, a) — value, confidence or mark —
// to every rule reading a: per-tuple rules get the tuple enqueued for both
// the cRepair and hRepair consumers; variable CFDs get their group index
// updated and the affected groups marked dirty for all phases.
func (s *scheduler) noteWrite(i, a int, t *relation.Tuple) {
	for _, ri := range s.attrRules[a] {
		if gi := s.gidx[ri]; gi != nil {
			gi.update(i, a, t)
			continue
		}
		// hRepair only repairs CFD violations, so MD rules get no phaseH
		// marks — HRepair would never drain them.
		markC, markH := true, s.rules[ri].Kind == rule.ConstantCFD
		if ri == s.activeRule && i == s.activeTuple && !s.lhsSet[ri][a] {
			// Self-write to a pure-conclusion attribute: skip only the
			// writing phase's mark (see the activeRule field doc).
			if s.activePhase == phaseC {
				markC = false
			} else {
				markH = false
			}
		}
		if markC {
			s.dirtyC[ri].mark(i)
		}
		if markH {
			s.dirtyH[ri].mark(i)
		}
	}
	// Indirect hRepair reads: the write may flip a master tie-break for a
	// variable CFD whose groups do not otherwise read this attribute.
	for _, ri := range s.attrHExtra[a] {
		if gi := s.gidx[ri]; gi.member[i] {
			gi.dirty[phaseH][gi.key[i]] = true
		}
	}
}

func (s *scheduler) tupleSet(phase, ri int) *dirtySet {
	if phase == phaseH {
		return s.dirtyH[ri]
	}
	return s.dirtyC[ri]
}

// takeTuples drains the dirty tuples of a per-tuple rule for one consumer
// phase, in ascending tuple order — the order a full scan visits them.
func (s *scheduler) takeTuples(phase, ri int) []int {
	return s.tupleSet(phase, ri).take()
}

// clearTuples drops the phase's dirty marks for a per-tuple rule; a full
// scan about to visit every tuple calls it so the marks it covers are not
// re-processed next round.
func (s *scheduler) clearTuples(phase, ri int) {
	s.tupleSet(phase, ri).clear()
}

// takeGroups drains the dirty groups of a variable CFD for one consumer
// phase and returns snapshots of their member lists, ordered by first member
// — the order cfd.Groups yields them. Keys whose group dissolved since being
// marked are skipped.
func (s *scheduler) takeGroups(phase, ri int) [][]int {
	gi := s.gidx[ri]
	keys := gi.takeKeys(phase)
	if len(keys) == 0 {
		return nil
	}
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		if g := gi.groups[k]; g != nil && len(g.members) > 0 {
			out = append(out, append([]int(nil), g.members...))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// clearGroups drops the phase's dirty group marks of a variable CFD before a
// full scan covers them.
func (s *scheduler) clearGroups(phase, ri int) {
	s.gidx[ri].dirty[phase] = make(map[int32]bool)
}

// allGroups snapshots every group of a variable CFD, ordered by first
// member — the listing the seeding rounds iterate instead of re-grouping
// the whole relation with cfd.Groups. It is identical to that grouping at
// every instant (TestGroupIndexStaysExact pins this).
func (s *scheduler) allGroups(ri int) [][]int {
	gi := s.gidx[ri]
	out := make([][]int, 0, len(gi.groups))
	for _, g := range gi.groups { //det:ok maporder snapshots are re-sorted by first member below; first members are distinct since groups partition the relation
		out = append(out, append([]int(nil), g.members...))
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// resetE clears the eRepair consumer's group marks for every variable CFD.
// ERepair calls it before seeding its entropy tree from scratch, so that the
// marks it consumes afterwards reflect only its own resolutions.
func (s *scheduler) resetE() {
	for _, gi := range s.gidx {
		if gi != nil {
			gi.dirty[phaseE] = make(map[int32]bool)
		}
	}
}

// ruleReadSet returns, indexed by data attribute, whether rule r reads that
// column: its LHS attributes plus its RHS/conclusion data attributes (a
// CFD also re-reads its RHS column to decide whether a tuple violates; an
// MD compares the conclusion's data cell against master). This is the
// dependency set the scheduler's attrRules reverse map is built from.
func ruleReadSet(r rule.Rule, arity int) []bool {
	reads := make([]bool, arity)
	for _, a := range r.LHSAttrs() {
		reads[a] = true
	}
	for _, a := range r.RHSAttrs() {
		reads[a] = true
	}
	return reads
}

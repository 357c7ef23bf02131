package clean

import (
	"math/bits"
	"sort"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/rule"
)

// This file decides what each rule pass visits. The appliers have one path
// per phase: every pass asks the engine's worklist for the tuples or groups
// to hand its rule, and the two worklist implementations differ only in
// the answer.
//
// The delta scheduler (the default) maintains (1) a reverse dependency map
// from attributes to the rules whose premise or conclusion reads them, (2)
// a persistent per-rule group index for variable CFDs, kept in sync under
// every engine write rather than rebuilt by cfd.Groups each round, and (3)
// per-phase worklists of dirty tuples and groups. Every worklist starts in
// an "everything is dirty" state, so the first pass of each phase visits
// everything as an ordinary take; afterwards a rule is handed exactly the
// tuples/groups whose read attributes were written since the rule last saw
// them.
//
// Correctness rests on a quiescence argument checked by the equivalence
// property suite: a tuple or group none of whose read cells (value,
// confidence or mark) changed since a rule last processed it cannot newly
// fire that rule — re-processing it is a no-op that records nothing — so
// skipping it leaves Fixes, Asserts, Conflicts and the certified Report
// byte-for-byte identical to the rescan reference (Options.Rescan), which
// hands out every tuple and every cfd.Groups group on every call.
//
// Group keys are interned: each distinct LHS projection string maps to a
// dense int32 symbol once, and the index, the dirty sets and the per-tuple
// key cache all hash and compare symbols. Key strings were the write path's
// hot spot — every noteWrite to an LHS attribute rebuilt the projection
// string and re-hashed it into the groups map plus one dirty map per
// consumer phase.

// worklist decides what a rule pass visits. The engine holds one: the
// delta scheduler, or the rescan reference under Options.Rescan.
type worklist interface {
	// tuples returns the tuples per-tuple rule ri visits in phase, in
	// ascending order. The caller must not modify the slice.
	tuples(phase, ri int) []int
	// groups returns the member lists variable CFD ri visits in phase,
	// ordered by first member, and whether they are every group of the
	// rule rather than the ones written since the phase last looked.
	groups(phase, ri int) (gs [][]int, full bool)
	// regroup returns the groups eRepair (re-)keys in its entropy tree:
	// with start, every group the tree of a new call must see; otherwise
	// the groups the last resolution's writes may have changed.
	regroup(start bool) []keyedGroup
	// extracted notes that eRepair took g off its tree.
	extracted(g keyedGroup)
	// noteWrite learns of one cell write (i, a) — value, confidence or
	// mark — to tuple t.
	noteWrite(i, a int, t *relation.Tuple)
	// setActive marks the per-tuple applier about to run on tuple i;
	// clearActive ends it.
	setActive(phase, ri, i int)
	clearActive()
}

// keyedGroup is one group a worklist hands eRepair: rule ri's group with
// LHS key, and a snapshot of its members — nil when the group dissolved
// since it was last handed out, so its tree entry is dropped. Snapshots
// matter: the index slices mutate under later writes, while a tree entry
// must keep the membership it was keyed with until re-keyed. sym is the
// scheduler's interned key, -1 from the rescan reference.
type keyedGroup struct {
	ri      int
	key     string
	sym     int32
	members []int
}

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

// dirtySet is a bitset of dirty tuples: one per (per-tuple rule, consumer
// phase). noteWrite marks a tuple on every engine write, so marking must be
// a bit write, not a hash insert (mapassign_fast64 dominated the write path
// when this was a map, ROADMAP (i)) nor an append to a side list. Draining
// walks the words in ascending order, so the marked tuples come out sorted
// with no sort.
type dirtySet struct {
	bits []uint64 // bit i of word i/64 is set while tuple i is marked
	n    int      // number of marked tuples
	all  []int    // the identity listing while every tuple is dirty, else nil
}

// newDirtySet returns a set in the start state: every tuple dirty. all is
// the shared identity listing 0..Len-1.
func newDirtySet(all []int) *dirtySet {
	return &dirtySet{bits: make([]uint64, (len(all)+63)/64), all: all}
}

// mark adds tuple i to the set; re-marking is a cheap no-op.
func (s *dirtySet) mark(i int) {
	w, b := i/64, uint64(1)<<(i%64)
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.n++
	}
}

// take drains the set and returns the marked tuples in ascending order —
// the order a full scan visits them. The first take returns every tuple.
func (s *dirtySet) take() []int {
	if all := s.all; all != nil {
		s.all = nil
		s.clear()
		return all
	}
	if s.n == 0 {
		return nil
	}
	out := make([]int, 0, s.n)
	for w := 0; len(out) < s.n; w++ {
		for x := s.bits[w]; x != 0; x &= x - 1 {
			out = append(out, w*64+bits.TrailingZeros64(x))
		}
		s.bits[w] = 0
	}
	s.n = 0
	return out
}

// clear empties the set.
func (s *dirtySet) clear() {
	clear(s.bits)
	s.n = 0
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
// a write since that phase last took them; every phase starts with all
// groups dirty.
type groupIndex struct {
	c      *cfd.CFD
	syms   *symtab
	member []bool  // per tuple: currently matches the LHS pattern
	key    []int32 // per tuple: current group key symbol, valid when member
	groups map[int32]*igroup
	dirty  [numPhases]map[int32]bool
	all    [numPhases]bool // phase has not taken yet: every group is dirty
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
		gi.all[p] = true
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
// in ascending symbol order; the first take returns the key of every
// current group. Every consumer happens to derive order-independent
// state from the keys (queue entries ordered by (entropy, id),
// sorted group listings, summed counters) — PR 4 audited exactly that by
// hand — but sorting removes the argument: the keys leave here deterministic
// and no future consumer can silently start depending on map order.
func (gi *groupIndex) takeKeys(phase int) []int32 {
	var out []int32
	switch {
	case gi.all[phase]:
		gi.all[phase] = false
		out = make([]int32, 0, len(gi.groups))
		for k := range gi.groups { //det:ok maporder keys are sorted ascending below before anyone sees them
			out = append(out, k)
		}
	case len(gi.dirty[phase]) == 0:
		return nil
	default:
		out = make([]int32, 0, len(gi.dirty[phase]))
		for k := range gi.dirty[phase] { //det:ok maporder keys are sorted ascending below before anyone sees them
			out = append(out, k)
		}
	}
	gi.dirty[phase] = make(map[int32]bool)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scheduler is the delta worklist: the reverse dependency map and, per
// rule, either a persistent group index (variable CFDs) or per-phase dirty
// tuple sets (constant CFDs and MDs).
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

	// eredo lists the groups eRepair extracted from its tree during the
	// last call. A call drains its tree, so the next call's tree holds
	// exactly these (re-snapshotted) plus the groups written since.
	eredo []keyedGroup
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
	all := identity(d.Len())
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
			s.dirtyC[ri] = newDirtySet(all)
			s.dirtyH[ri] = newDirtySet(all)
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

func (s *scheduler) setActive(phase, ri, i int) {
	s.activePhase, s.activeRule, s.activeTuple = phase, ri, i
}

func (s *scheduler) clearActive() { s.activeRule = -1 }

// noteWrite propagates one cell write (i, a) to every rule reading a:
// per-tuple rules get the tuple enqueued for both the cRepair and hRepair
// consumers; variable CFDs get their group index updated and the affected
// groups marked dirty for all phases.
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

// tuples drains the dirty tuples of a per-tuple rule for one consumer
// phase.
func (s *scheduler) tuples(phase, ri int) []int {
	if phase == phaseH {
		return s.dirtyH[ri].take()
	}
	return s.dirtyC[ri].take()
}

// groups drains the dirty groups of a variable CFD for one consumer phase
// and returns snapshots of their member lists, ordered by first member —
// the order cfd.Groups yields them. Keys whose group dissolved since being
// marked are skipped. The first take lists every group, identical to
// cfd.Groups at that instant (TestGroupIndexStaysExact pins the index).
func (s *scheduler) groups(phase, ri int) ([][]int, bool) {
	gi := s.gidx[ri]
	full := gi.all[phase]
	keys := gi.takeKeys(phase)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		if g := gi.groups[k]; g != nil && len(g.members) > 0 {
			out = append(out, append([]int(nil), g.members...))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out, full
}

// regroup hands eRepair the groups whose phaseE marks are pending — on a
// call's first regroup every group, since the phase starts all dirty —
// preceded at the start of a later call by the groups the previous call
// extracted.
func (s *scheduler) regroup(start bool) []keyedGroup {
	var out []keyedGroup
	if start {
		for _, g := range s.eredo {
			out = append(out, s.keyed(g.ri, g.sym))
		}
		s.eredo = nil
	}
	for ri, gi := range s.gidx {
		if gi == nil {
			continue
		}
		for _, sym := range gi.takeKeys(phaseE) {
			out = append(out, s.keyed(ri, sym))
		}
	}
	return out
}

// keyed snapshots one group of variable CFD ri out of its index.
func (s *scheduler) keyed(ri int, sym int32) keyedGroup {
	gi := s.gidx[ri]
	g := keyedGroup{ri: ri, key: gi.syms.str(sym), sym: sym}
	if cg := gi.groups[sym]; cg != nil {
		g.members = append([]int(nil), cg.members...)
	}
	return g
}

func (s *scheduler) extracted(g keyedGroup) { s.eredo = append(s.eredo, g) }

// rescan is the full-rescan reference worklist (Options.Rescan): every
// call hands out every tuple, or every group as cfd.Groups derives it from
// the relation. It builds no index and shares no state with the scheduler
// it is the oracle for.
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

func (r *rescan) noteWrite(_, a int, _ *relation.Tuple) {
	for _, ri := range r.readers[a] {
		r.stale[ri] = true
	}
}

func (r *rescan) setActive(_, _, _ int) {}

func (r *rescan) clearActive() {}

// identity returns the listing 0..n-1.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
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

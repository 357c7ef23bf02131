package clean

import (
	"encoding/binary"
	"maps"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/rule"
)

// This file decides what each rule pass visits. The appliers have one path
// per phase: every pass asks the engine's worklist for the tuples or groups
// to hand its rule. The engine runs the delta scheduler; the test-only
// rescan reference (rescan_test.go) answers the same questions by scanning
// everything, and is the oracle the identity suites compare against.
//
// The delta scheduler maintains (1) a reverse dependency map
// from attributes to the rules whose premise or conclusion reads them, (2)
// a persistent per-rule group index for variable CFDs, kept in sync under
// every engine write rather than rebuilt by cfd.Groups each round, and (3)
// per-phase worklists of dirty tuples and groups. Every worklist starts in
// an "everything is dirty" state, so the first pass of each phase visits
// everything as an ordinary take; afterwards a rule is handed exactly the
// tuples/groups whose observed cells were written since the rule last saw
// them.
//
// What the phases observe of a rule's cells: cRepair the premise values
// and confidences (pattern or group key, trust test) and the conclusion
// values, confidences and marks; eRepair a group's key and RHS cells;
// hRepair what cRepair does, plus premise marks in retract, which skips
// frozen LHS cells (so a freeze only takes candidates away), and for a
// variable CFD's tie-break MD premise values through master probes
// (attrHExtra).
//
// Correctness rests on a quiescence argument checked by the equivalence
// property suite: a tuple or group none of whose observed cells changed
// since a rule last processed it cannot newly fire that rule —
// re-processing it is a no-op that records nothing — so skipping it leaves
// Fixes, Asserts, Conflicts and the certified Report byte-for-byte
// identical to the test-only rescan reference, which hands out every tuple
// and every cfd.Groups group on every call.
//
// Groups are keyed on the engine's cell codes (codes.go), not on strings:
// a one-attribute LHS uses the cell code itself as the group symbol and a
// wider one interns its fixed-width code tuple, so the index is a slice by
// symbol and the dirty groups are bitsets. Key strings were the write
// path's hot spot: every noteWrite to an LHS attribute, asserts included,
// rebuilt and re-hashed one. A group's key string is built once, when the
// group first forms, for eRepair's tie-break id.

// worklist decides what a rule pass visits. The engine holds one: the
// delta scheduler, which the identity suites swap for the test-only rescan
// reference.
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
	// noteWrite learns of one cell write (i, a) to tuple t: a value or
	// confidence change, or with freeze a mark-only change (an assert that
	// left value and confidence as they were).
	noteWrite(i, a int, t *relation.Tuple, freeze bool)
	// setActive marks the per-tuple applier about to run on tuple i, or
	// with i = -1 the group applier of variable CFD ri; clearActive ends
	// it.
	setActive(phase, ri, i int)
	clearActive()
}

// keyedGroup is one group a worklist hands eRepair: rule ri's group with
// LHS key, and a snapshot of its members — nil when the group dissolved
// since it was last handed out, so its tree entry is dropped. Snapshots
// matter: the index slices mutate under later writes, while a tree entry
// must keep the membership it was keyed with until re-keyed. sym is the
// scheduler's group symbol, -1 from the test-only rescan reference.
type keyedGroup struct {
	ri      int
	key     string
	sym     int
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

// dirtySet is a bitset of dirty tuples, or of dirty group symbols: one per
// (rule, consumer phase). noteWrite marks on every engine write, so marking
// must be a bit write, not a hash insert (mapassign_fast64 dominated the
// write path when these were maps, ROADMAP (i)) nor an append to a side
// list. Draining walks the words in ascending order, so the marked items
// come out sorted with no sort.
type dirtySet struct {
	bits []uint64 // bit i of word i/64 is set while item i is marked
	n    int      // number of marked items
	all  []int    // the identity listing while every tuple is dirty, else nil
}

// newDirtySet returns a set in the start state: every tuple dirty. all is
// the shared identity listing 0..Len-1; a nil all starts the set empty.
func newDirtySet(all []int) *dirtySet {
	return &dirtySet{bits: make([]uint64, (len(all)+63)/64), all: all}
}

// mark adds item i to the set, growing it as new group symbols appear;
// re-marking is a cheap no-op.
func (s *dirtySet) mark(i int) {
	w, b := i/64, uint64(1)<<(i%64)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
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
// order that cfd.Groups produces. A dissolved group stays, empty.
type igroup struct {
	key     string // the LHS projection key, as cfd.Groups spells it
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
// Groups are named by symbols over the engine's cell codes: a one-attribute
// LHS uses its code as the symbol, a wider one interns its fixed-width code
// tuple. The index additionally tracks, per consumer phase, the symbols of
// groups touched by a write since that phase last took them; every group
// is marked when the index is built, so each phase starts all dirty.
type groupIndex struct {
	c      *cfd.CFD
	lhs    []*column        // the LHS attributes' coded columns, parallel to c.LHS
	tuples map[string]int32 // wider LHS: code tuple -> symbol
	buf    []byte           // code-tuple scratch
	key    []int32          // per tuple: current group symbol, -1 unless it matches the LHS pattern
	groups []*igroup        // by symbol; nil until the group first forms
	dirty  [numPhases]*dirtySet
	all    [numPhases]bool // groups has not taken the phase yet: the take lists every group
}

func newGroupIndex(c *cfd.CFD, d *relation.Relation, codes cellCodes) *groupIndex {
	gi := &groupIndex{c: c, key: make([]int32, d.Len()), tuples: make(map[string]int32)}
	for _, a := range c.LHS {
		gi.lhs = append(gi.lhs, codes[a])
	}
	for p := range gi.dirty {
		gi.dirty[p] = newDirtySet(nil)
		gi.all[p] = true
	}
	// Count every group before filling it, so each member list is
	// allocated once at its final size.
	var size []int
	for i, t := range d.Tuples {
		gi.key[i] = -1
		if c.MatchLHS(t) {
			sym := gi.symbol(i)
			if n := int(sym) + 1; n > len(size) {
				size = append(size, make([]int, n-len(size))...)
			}
			size[sym]++
			gi.key[i] = sym
		}
	}
	gi.groups = make([]*igroup, len(size))
	for i, sym := range gi.key {
		if sym >= 0 {
			gi.place(i, sym, d.Tuples[i], size[sym])
		}
	}
	return gi
}

// symbol returns the group symbol of tuple i's current LHS codes.
func (gi *groupIndex) symbol(i int) int32 {
	if len(gi.lhs) == 1 {
		return gi.lhs[0].code[i]
	}
	gi.buf = gi.buf[:0]
	for _, col := range gi.lhs {
		gi.buf = binary.LittleEndian.AppendUint32(gi.buf, uint32(col.code[i]))
	}
	sym, ok := gi.tuples[string(gi.buf)]
	if !ok {
		sym = int32(len(gi.tuples))
		gi.tuples[string(gi.buf)] = sym
	}
	return sym
}

// place adds tuple i to group sym and marks the group dirty. A group
// forming here gets room for size members.
func (gi *groupIndex) place(i int, sym int32, t *relation.Tuple, size int) {
	if n := int(sym) + 1; n > len(gi.groups) {
		gi.groups = append(gi.groups, make([]*igroup, n-len(gi.groups))...)
	}
	g := gi.groups[sym]
	if g == nil {
		g = &igroup{key: t.Key(gi.c.LHS), members: make([]int, 0, size)}
		gi.groups[sym] = g
	}
	g.insert(i)
	gi.key[i] = sym
	gi.markDirty(sym, false)
}

// markDirty marks group sym dirty for every consumer phase, or with
// skipC for every phase but cRepair.
func (gi *groupIndex) markDirty(sym int32, skipC bool) {
	for p, d := range gi.dirty {
		if p != phaseC || !skipC {
			d.mark(int(sym))
		}
	}
}

// update re-derives tuple i's membership after a write to attribute a, one
// the CFD reads, and marks the affected groups dirty for every consumer
// phase — but cRepair with skipC, which the scheduler passes for the
// rule's own cRepair writes to its RHS. A write that keeps the symbol
// still dirties the group: a value, confidence or mark the group's
// appliers read changed (noteWrite sends here only such writes).
func (gi *groupIndex) update(i, a int, t *relation.Tuple, skipC bool) {
	if hasAttr(gi.c.LHS, a) && gi.move(i, t) {
		return
	}
	if old := gi.key[i]; old >= 0 {
		gi.markDirty(old, skipC)
	}
}

// move re-derives tuple i's group from its current LHS codes and reports
// whether it changed, marking the group it left and the one it joined
// dirty for every phase.
func (gi *groupIndex) move(i int, t *relation.Tuple) bool {
	old, sym := gi.key[i], int32(-1)
	if gi.c.MatchLHS(t) {
		sym = gi.symbol(i)
	}
	if sym == old {
		return false
	}
	if old >= 0 {
		gi.groups[old].remove(i)
		gi.markDirty(old, false)
	}
	gi.key[i] = -1
	if sym >= 0 {
		gi.place(i, sym, t, 0)
	}
	return true
}

// fork returns a copy of the index over codes, a copy of the columns gi
// reads, with no group dirty: start puts it in the start state. Key
// strings are shared and the member lists are carved out of one array
// with their capacity clipped, so the first insert into a group
// reallocates it.
func (gi *groupIndex) fork(codes cellCodes) *groupIndex {
	f := &groupIndex{c: gi.c, tuples: maps.Clone(gi.tuples), key: slices.Clone(gi.key), groups: make([]*igroup, len(gi.groups))}
	for _, a := range gi.c.LHS {
		f.lhs = append(f.lhs, codes[a])
	}
	for p := range f.dirty {
		f.dirty[p] = newDirtySet(nil)
	}
	gs := make([]igroup, len(gi.groups))
	members := make([]int, 0, len(gi.key))
	for sym, g := range gi.groups {
		if g == nil {
			continue
		}
		lo := len(members)
		members = append(members, g.members...)
		gs[sym] = igroup{key: g.key, members: members[lo:len(members):len(members)]}
		f.groups[sym] = &gs[sym]
	}
	return f
}

// start puts the index in the start state of a fresh build: every group
// with members is dirty for every phase, and no other.
func (gi *groupIndex) start() {
	for p, d := range gi.dirty {
		d.clear()
		gi.all[p] = true
	}
	for sym, g := range gi.groups {
		if g != nil && len(g.members) > 0 {
			gi.markDirty(int32(sym), false)
		}
	}
}

// sparse reports whether more of the index's groups are empty than not:
// a wider LHS's symbols only grow, like the codes under them.
func (gi *groupIndex) sparse() bool {
	dead, live := 0, 0
	for _, g := range gi.groups {
		switch {
		case g == nil:
		case len(g.members) == 0:
			dead++
		default:
			live++
		}
	}
	return dead > live
}

// scheduler is the delta worklist: the reverse dependency map and, per
// rule, either a persistent group index (variable CFDs) or per-phase dirty
// tuple sets (constant CFDs and MDs).
type scheduler struct {
	rules     []rule.Rule
	attrRules [][]int       // attribute -> indexes of rules reading it
	attrConcl [][]int       // attribute -> indexes of rules concluding on it: a freeze's readers
	gidx      []*groupIndex // parallel to rules; nil unless VariableCFD
	lhsSet    []map[int]bool
	dirtyC    []*dirtySet // per-tuple rules: cRepair consumer worklist
	dirtyH    []*dirtySet // per-tuple rules: hRepair consumer worklist
	all       []int       // the identity listing 0..Len-1, every dirty tuple set's start state

	// attrHExtra maps an attribute to the variable-CFD rules whose hRepair
	// target choice reads it indirectly: hTarget breaks ties by master-data
	// support, probing the MD blocking indexes with the group members'
	// premise cells. A write to an MD premise attribute can therefore flip
	// the repair target of a variable CFD whose RHS that MD writes, even
	// though the attribute is in neither the CFD's LHS nor RHS — so it must
	// re-enqueue the member's group for the hRepair consumer.
	attrHExtra [][]int

	// The applier currently running, or activeRule < 0; activeTuple is -1
	// for a group applier. A write by a per-tuple rule to a pure-conclusion
	// attribute (one not in its own premise) of the tuple it is processing
	// is not re-enqueued for that rule in the writing phase: the applier
	// runs its full switch, so re-processing the tuple unchanged is a no-op
	// — the written cell now matches the target and is frozen or
	// budget-tracked, and conflicts are deduplicated. Likewise a variable
	// CFD's cRepair writes to its RHS do not re-mark its group for
	// cRepair: re-running variableCFDGroup picks the same best value at the
	// same confidence and only re-asserts frozen cells. Writes to premise
	// attributes, writes to other tuples, and the other phases' marks are
	// never skipped.
	activePhase, activeRule, activeTuple int

	// eredo lists the groups eRepair extracted from its tree during the
	// last call. A call drains its tree, so the next call's tree holds
	// exactly these (re-snapshotted) plus the groups written since.
	eredo []keyedGroup
}

// newScheduler computes the reverse dependency map once from the ordered rule
// set and builds the variable-CFD group indexes over data and its codes. A
// rule "reads" its premise attributes and its conclusion attribute: a write
// to either can change whether and how the rule fires on the tuple.
func newScheduler(rules []rule.Rule, d *relation.Relation, codes cellCodes) *scheduler {
	s := &scheduler{
		rules:      rules,
		attrRules:  make([][]int, d.Schema.Arity()),
		attrConcl:  make([][]int, d.Schema.Arity()),
		gidx:       make([]*groupIndex, len(rules)),
		lhsSet:     make([]map[int]bool, len(rules)),
		dirtyC:     make([]*dirtySet, len(rules)),
		dirtyH:     make([]*dirtySet, len(rules)),
		all:        identity(d.Len()),
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
		for _, a := range r.RHSAttrs() {
			s.attrConcl[a] = append(s.attrConcl[a], ri)
		}
		if r.Kind == rule.VariableCFD {
			s.gidx[ri] = newGroupIndex(r.CFD, d, codes)
		} else {
			s.dirtyC[ri] = newDirtySet(s.all)
			s.dirtyH[ri] = newDirtySet(s.all)
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

// fork returns a copy of s over codes, a copy of the codes s reads: it
// shares s's dependency maps and identity listing, which no write changes,
// and forks its group indexes, which writes move tuples between. Nothing
// the fork does writes s. The fork has no worklists: start gives it those
// of the start state.
func (s *scheduler) fork(codes cellCodes) *scheduler {
	f := *s
	f.dirtyC, f.dirtyH, f.eredo = nil, nil, nil
	f.gidx = make([]*groupIndex, len(s.gidx))
	for ri, gi := range s.gidx {
		if gi != nil {
			f.gidx[ri] = gi.fork(codes)
		}
	}
	return &f
}

// start puts s in the start state of a fresh build, over its current
// tuples: every worklist lists everything, and no applier is running.
func (s *scheduler) start() {
	s.dirtyC = make([]*dirtySet, len(s.rules))
	s.dirtyH = make([]*dirtySet, len(s.rules))
	s.activeRule, s.eredo = -1, nil
	for ri, gi := range s.gidx {
		if gi != nil {
			gi.start()
		} else {
			s.dirtyC[ri] = newDirtySet(s.all)
			s.dirtyH[ri] = newDirtySet(s.all)
		}
	}
}

// patch moves tuple i, whose values are t's and whose codes are already
// set, to its groups, appending it when i is one past the last tuple.
func (s *scheduler) patch(i int, t *relation.Tuple) {
	if i == len(s.all) {
		s.all = append(s.all[:i:i], i)
	}
	for _, gi := range s.gidx {
		if gi == nil {
			continue
		}
		if i == len(gi.key) {
			gi.key = append(gi.key, -1)
		}
		gi.move(i, t)
	}
}

func (s *scheduler) setActive(phase, ri, i int) {
	s.activePhase, s.activeRule, s.activeTuple = phase, ri, i
}

func (s *scheduler) clearActive() { s.activeRule = -1 }

// noteWrite propagates one cell write (i, a) to the rules that observe it:
// per-tuple rules get the tuple enqueued for both the cRepair and hRepair
// consumers; variable CFDs get their group index updated and the affected
// groups marked dirty for all phases. A freeze marks only hRepair's group
// of each variable CFD concluding on a (see freeze); a constant CFD is
// woken only for a tuple inside its LHS pattern, as both its appliers
// return at once outside it; and the applier running is not woken by its
// own writes (see the activeRule field).
func (s *scheduler) noteWrite(i, a int, t *relation.Tuple, freeze bool) {
	if freeze {
		s.freeze(i, a)
		return
	}
	for _, ri := range s.attrRules[a] {
		r := s.rules[ri]
		self := ri == s.activeRule && !s.lhsSet[ri][a]
		if gi := s.gidx[ri]; gi != nil {
			gi.update(i, a, t, self && s.activePhase == phaseC)
			continue
		}
		if r.Kind == rule.ConstantCFD && !r.CFD.MatchLHS(t) {
			continue
		}
		// hRepair only repairs CFD violations, so MD rules get no phaseH
		// marks — HRepair would never drain them.
		markC, markH := true, r.Kind == rule.ConstantCFD
		if self && i == s.activeTuple {
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
		if gi := s.gidx[ri]; gi.key[i] >= 0 {
			gi.dirty[phaseH].mark(int(gi.key[i]))
		}
	}
}

// freeze learns of an assert on cell (i, a) that changed only its mark.
// Only hRepair's variable-CFD group pass observes a mark it did not
// write: its frozen tally over the group's RHS cells picks the kept
// value. Every other pass is blind to it. A per-tuple rule and a
// variable CFD's cRepair pass that fire on a trusted premise leave their
// conclusion cell frozen or written, so a later freeze of it cannot
// change their outcome, and eRepair already resolved or skipped any group
// with two frozen values. So a freeze marks, for hRepair only, tuple i's
// group of each variable CFD concluding on a.
func (s *scheduler) freeze(i, a int) {
	for _, ri := range s.attrConcl[a] {
		if gi := s.gidx[ri]; gi != nil && gi.key[i] >= 0 {
			gi.dirty[phaseH].mark(int(gi.key[i]))
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
	gi.all[phase] = false
	keys := gi.dirty[phase].take()
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		if g := gi.groups[k]; len(g.members) > 0 {
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
		for _, sym := range gi.dirty[phaseE].take() {
			out = append(out, s.keyed(ri, sym))
		}
	}
	return out
}

// keyed snapshots one group of variable CFD ri out of its index.
func (s *scheduler) keyed(ri, sym int) keyedGroup {
	cg := s.gidx[ri].groups[sym]
	return keyedGroup{ri: ri, key: cg.key, sym: sym, members: append([]int(nil), cg.members...)}
}

func (s *scheduler) extracted(g keyedGroup) { s.eredo = append(s.eredo, g) }

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

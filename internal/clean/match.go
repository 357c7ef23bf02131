package clean

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
	"repro/internal/suffixtree"
)

// mdIndex is one MD premise's blocking index over the master relation
// (Section 5.2), built once: master is fixed for a whole run and, on a
// stream, across every update, so only the lookup memo is written after
// construction. Rules with the same premise — the normalized siblings of
// one MD above all — share one index (see premiseOwners), so its buckets,
// its suffix array and its memo are built and filled once per premise; m
// is the first such rule, and only its premise is read. Two indexes are
// available:
//
//   - a hash index keyed on the projection of the master attributes of the
//     equality clauses, when the premise has any. Each distinct projection
//     is a bucket with a dense id; a data tuple's bucket id is resolved
//     once into a premise column (premCol) and read from there;
//   - otherwise, a generalized suffix array over the active domain of the
//     master attribute of the first edit-distance clause. One query per
//     distinct data value v — certification's exact count filter (see
//     editCandidates) — yields every master value that may lie within edit
//     distance K of v; repair keeps the l of them closest to v (see block),
//     certification all of them.
//
// Suffix-array candidates, and equality buckets of premises with a
// similarity clause too, are then verified against the full premise. An
// all-equality premise needs no verification: relation.AppendKey's
// escaping makes the bucket key injective, so a bucket is exactly the set
// of master tuples on which the premise holds for every tuple resolving to
// it — unless the shared projection holds a null, which matches nothing.
// MDs with neither index (e.g. a single Jaro-Winkler clause) fall back to
// a full scan, which the stats expose so callers can notice.
//
// Without an equality index, a lookup is a pure function of the tuple's
// LHS values and the immutable master, so those indexes memoize it (see
// memo): tuples share few distinct values, and each is blocked and verified
// once per memo lifetime rather than once per tuple.
//
// An index is read through matchers: any number may share it, on any
// goroutine, since only storing matchers, which run alone, write the memo.
type mdIndex struct {
	m      *md.MD
	master *relation.Relation

	eqDataAttrs   []int // data attrs of equality clauses
	eqMasterAttrs []int // master attrs of equality clauses
	// The equality index, nil without equality clauses: keys maps a master
	// projection on eqMasterAttrs to its bucket id, ids assigned in master
	// order; buckets[id] holds the bucket's ascending master tuple indexes,
	// and holds[id] says the premise holds on all of them for any tuple
	// resolving to id (an all-equality premise and a null-free projection).
	keys    map[string]int32
	buckets [][]int
	holds   []bool

	simData   int // data attr of the blockable edit clause, -1 if none
	simMaster int
	simK      int
	tree      *suffixtree.Tree
	treeIDs   [][]int // suffix-array string id -> master tuple indexes
	sidOf     []int32 // master tuple index -> string id, for non-null values

	// all is the identity list 0..|Dm|-1 the full-scan fallbacks return,
	// one list shared by every index over master and the Checker.
	all []int

	// memo is nil when the MD has an equality index. lhsAttrs are the data
	// attributes of every premise clause, the projection lookups are keyed
	// on. Every memo write happens at a sequential point — a storing
	// matcher, or prefetch's store step — while the matchers reading it
	// concurrently never store, so no lock is needed.
	memo     *memo
	lhsAttrs []int
}

// noBucket is the premise-column entry of a tuple whose equality
// projection no master tuple shares.
const noBucket = -1

// premCol is an equality index's premise column over one data relation:
// the bucket id of every tuple, so a lookup reads buckets[ids[i]] instead
// of hashing the tuple's projection. The engine builds one per distinct
// equality index beside its clone and keeps it exact in Engine.write, the
// one write that changes a value, and certification at Engine.finish reads
// it; a standalone Checker builds its own over the relation it certifies.
type premCol struct {
	ix  *mdIndex
	ids []int32
	buf []byte // key scratch of set
}

// newPremCol resolves every tuple of d against ix's equality index.
func newPremCol(ix *mdIndex, d *relation.Relation) *premCol {
	c := &premCol{ix: ix, ids: make([]int32, d.Len())}
	for i, t := range d.Tuples {
		c.set(i, t)
	}
	return c
}

// set re-resolves tuple i, whose values are t's.
func (c *premCol) set(i int, t *relation.Tuple) {
	c.buf = relation.AppendKey(c.buf[:0], t, c.ix.eqDataAttrs)
	id, ok := c.ix.keys[string(c.buf)]
	if !ok {
		id = noBucket
	}
	c.ids[i] = id
}

// matcher is one probe of an mdIndex: the index plus the lookup scratch
// and statistics of one caller, and col, the ids of the caller's premise
// column when the index has equality clauses. Probes name a tuple by its
// index i in that column's relation as well as by its values t. Scratch is
// reused across probes so the hot path does not allocate per tuple: idsBuf
// backs the candidate list, keyBuf backs the memo key (probed as
// string(keyBuf), which allocates nothing), sidBuf receives the suffix-array
// hits of editCandidates and nearBuf the master values block keeps. store
// says whether a memo miss is stored: true for a matcher that runs alone,
// false for one that runs beside others on a fanOut worker. A non-storing
// matcher instead collects the candidate lists it computes in fresh, by
// value, and reads them back from there before querying a value again;
// prefetch's store step keeps them, and a certification task's matcher
// lives for its task and drops them with it.
type matcher struct {
	*mdIndex
	col   []int32
	store bool
	fresh map[string][]int

	idsBuf  []int
	keyBuf  []byte
	sidBuf  []int32
	nearBuf []near

	stats MatchStats
}

// near is a master value within edit distance K of a probed value: its
// suffix-array string id and its distance.
type near struct {
	sid  int32
	dist int
}

// newMatcher returns a probe of ix reading the premise column ids col (nil
// without an equality index) with fresh scratch and zeroed statistics, so
// its work counters come out identical whether ix was just built or has
// served earlier runs.
func newMatcher(ix *mdIndex, col []int32, store bool) *matcher {
	return &matcher{mdIndex: ix, col: col, store: store, stats: MatchStats{MasterSize: ix.master.Len()}}
}

// memo holds an index's pure lookups. Entries are shared and read-only
// once stored: callers iterate the returned slices and never write them.
// The maps are made on the first store and cleared when they reach limit
// entries, a bound derived from the instance (see bound), so a long-lived
// stream memo cannot grow without end; a cleared entry is recomputed on its
// next miss, identically.
//
// A lookup entry depends on the TopL bound it was computed under. Every
// candidates and probe call passes its engine's Options.TopL, and a
// stream's sub-engines inherit the stream's options, so TopL is fixed for
// a memo's lifetime and is not part of the key.
type memo struct {
	// lookups maps a tuple's projection on lhsAttrs to its verified
	// candidates, for candidates and probe.
	lookups map[string]lookup
	// cert maps a similarity value to editCandidates' merged ascending
	// list: one entry per distinct value, computed once and read by both
	// repair's block and certCandidates.
	cert  map[string][]int
	limit int
}

// lookup is one memoized candidates/probe outcome: the verified master ids
// plus what blocking counted, so a hit bumps MatchStats exactly as the
// block+verify it replaces.
type lookup struct {
	ids     []int // verified master ids, in block order
	block   int   // raw candidates block returned
	scanned bool  // block fell back to a full scan
}

// putLookup and putCert store one entry, clearing the map first when it is
// full.
func (m *memo) putLookup(key string, en lookup) {
	if m.lookups == nil {
		m.lookups = make(map[string]lookup)
	} else if len(m.lookups) >= m.limit {
		clear(m.lookups)
	}
	m.lookups[key] = en
}

func (m *memo) putCert(key string, ids []int) {
	if m.cert == nil {
		m.cert = make(map[string][]int)
	} else if len(m.cert) >= m.limit {
		clear(m.cert)
	}
	m.cert[key] = ids
}

// bound sets the memo's size limit for a data relation of n tuples:
// 2·(|D|+|Dm|) entries per map (docs/streaming.md). A run holds one key
// per distinct value it looks up, typically a fraction of |D|; a long
// stream whose updates keep bringing new values reaches the limit, and the
// clear sheds the values it churned through.
func (ix *mdIndex) bound(n int) {
	if ix.memo != nil {
		ix.memo.limit = 2 * (n + ix.master.Len())
	}
}

// prefetch memoizes every lookup a pass over the tuples ids of d (all of d
// when ids is nil) would miss under topL, computing the misses in
// parallel: the first tuple of each distinct key the memo lacks is looked
// up by one of up to workers non-storing matchers, each taking one
// contiguous chunk, and the results are stored in the order their keys
// first appear, with the candidate lists the matchers computed on the way.
// The pass then only hits, and certification later reads the stored
// candidate lists. Like any memo write it changes no output. It runs at
// a sequential point; on an error, fanOut's, nothing is stored. fj arms
// fanOut's scheduling hook.
func (ix *mdIndex) prefetch(ctx context.Context, fj *fault.Injector, workers int, d *relation.Relation, ids []int, topL int) error {
	if ix.memo == nil {
		return nil
	}
	var keys []string
	var todo []int
	var buf []byte
	pending := make(map[string]bool)
	visit := func(i int) {
		buf = relation.AppendKey(buf[:0], d.Tuples[i], ix.lhsAttrs)
		if _, ok := ix.memo.lookups[string(buf)]; ok || pending[string(buf)] {
			return
		}
		key := string(buf)
		pending[key] = true
		keys = append(keys, key)
		todo = append(todo, i)
	}
	if ids == nil {
		for i := range d.Tuples {
			visit(i)
		}
	} else {
		for _, i := range ids {
			visit(i)
		}
	}
	// Each task returns the lookups of its own contiguous chunk of todo, so
	// the chunks concatenate to key order, and the candidate lists its
	// matcher computed on the way.
	type fetched struct {
		lookups []lookup
		cands   map[string][]int
	}
	n := min(len(todo), workers)
	chunks, err := fanOut(ctx, fj, "prefetch", workers, n, func(c int) fetched {
		f := newMatcher(ix, nil, false)
		var out fetched
		for _, i := range todo[c*len(todo)/n : (c+1)*len(todo)/n] {
			out.lookups = append(out.lookups, f.lookup(i, d.Tuples[i], topL))
		}
		out.cands = f.fresh
		return out
	})
	if err != nil {
		return err
	}
	// Clear up front when the entries would take a map past the bound, so
	// no entry stored here is shed before the pass reads it.
	m := ix.memo
	cands := 0
	for _, c := range chunks {
		cands += len(c.cands)
	}
	if len(m.cert)+cands > m.limit {
		clear(m.cert)
	}
	if len(m.lookups)+len(keys) > m.limit {
		clear(m.lookups)
	}
	k := 0
	for _, c := range chunks {
		for _, l := range c.lookups {
			m.putLookup(keys[k], l)
			k++
		}
		for v, ids := range c.cands { //det:ok maporder no put clears the map (see above), so the puts commute
			m.putCert(v, ids)
		}
	}
	return nil
}

// eqClauses returns the data- and master-side attributes of an MD's
// equality clauses — the premise part an exact-match blocking index can key
// on.
func eqClauses(m *md.MD) (data, master []int) {
	for _, cl := range m.LHS {
		if cl.Pred.Exact {
			data = append(data, cl.DataAttr)
			master = append(master, cl.MasterAttr)
		}
	}
	return data, master
}

// buildEqIndex buckets the master relation by its projection on
// eqMasterAttrs, numbering the buckets in order of first appearance. The
// buckets hold ascending tuple indexes, which blocked enumerations rely on
// to preserve the (T, S) order of a nested scan.
func (ix *mdIndex) buildEqIndex() {
	exact := len(ix.eqMasterAttrs) == len(ix.m.LHS)
	ix.keys = make(map[string]int32, ix.master.Len())
	for j, s := range ix.master.Tuples {
		key := s.Key(ix.eqMasterAttrs)
		id, ok := ix.keys[key]
		if !ok {
			id = int32(len(ix.buckets))
			ix.keys[key] = id
			ix.buckets = append(ix.buckets, nil)
			ix.holds = append(ix.holds, exact && !slices.ContainsFunc(ix.eqMasterAttrs, func(a int) bool {
				return relation.IsNull(s.Values[a])
			}))
		}
		ix.buckets[id] = append(ix.buckets[id], j)
	}
}

// premiseOwners maps every MD rule of rules to the first rule with the same
// premise, clause for clause by data attribute, master attribute and
// predicate name, and every CFD rule to -1: rules that share an owner share
// its index.
func premiseOwners(rules []rule.Rule) []int {
	owner := make([]int, len(rules))
	first := make(map[string]int)
	for i, r := range rules {
		owner[i] = -1
		if r.Kind != rule.MatchMD {
			continue
		}
		var key []byte
		for _, cl := range r.MD.LHS {
			key = fmt.Appendf(key, "%d\x00%d\x00%s\x00", cl.DataAttr, cl.MasterAttr, cl.Pred.Name)
		}
		if _, ok := first[string(key)]; !ok {
			first[string(key)] = i
		}
		owner[i] = first[string(key)]
	}
	return owner
}

// newMDIndex builds m's blocking index over master; all is
// identity(master.Len()), shared by every index over master.
func newMDIndex(m *md.MD, master *relation.Relation, all []int) *mdIndex {
	ix := &mdIndex{m: m, master: master, simData: -1, all: all}
	ix.eqDataAttrs, ix.eqMasterAttrs = eqClauses(m)
	for _, cl := range m.LHS {
		if k, ok := cl.Pred.EditThreshold(); ok && !cl.Pred.Exact && ix.simData < 0 {
			ix.simData, ix.simMaster, ix.simK = cl.DataAttr, cl.MasterAttr, k
		}
	}
	if len(ix.eqDataAttrs) > 0 {
		ix.buildEqIndex()
		return ix
	}
	for _, cl := range m.LHS {
		ix.lhsAttrs = append(ix.lhsAttrs, cl.DataAttr)
	}
	ix.memo = &memo{}
	ix.bound(0) // until an engine knows |D|
	if ix.simData < 0 {
		return ix // no usable index: every lookup scans Dm
	}
	byValue := make(map[string]int32)
	var names []string
	ix.sidOf = make([]int32, master.Len())
	for j, s := range master.Tuples {
		v := s.Values[ix.simMaster]
		if relation.IsNull(v) {
			continue
		}
		id, ok := byValue[v]
		if !ok {
			id = int32(len(names))
			byValue[v] = id
			names = append(names, v)
			ix.treeIDs = append(ix.treeIDs, nil)
		}
		ix.treeIDs[id] = append(ix.treeIDs[id], j)
		ix.sidOf[j] = id
	}
	// Index every name here, before any matcher shares the array, so
	// fanOut workers only ever read it.
	ix.tree = suffixtree.New(names...)
	return ix
}

// candidates returns the master tuple indexes on which the full MD premise
// holds for tuple i, whose values are t, going through the blocking indexes
// when available, and counts the query in the matcher's statistics. The
// slice may be shared with the memo or the equality index: callers must not
// modify it.
func (x *matcher) candidates(i int, t *relation.Tuple, topL int) []int {
	en := x.lookup(i, t, topL)
	x.stats.Lookups++
	if en.scanned {
		x.stats.FullScans++
	}
	x.stats.Candidates += en.block
	x.stats.Verified += len(en.ids)
	return en.ids
}

// probe is candidates without the statistics. hRepair's master-data
// tie-breaking uses it so the per-MD stats keep measuring matching work
// only, one lookup per tuple per round.
func (x *matcher) probe(i int, t *relation.Tuple, topL int) []int {
	return x.lookup(i, t, topL).ids
}

// lookup reads tuple i's equality bucket off the premise column, verifying
// it only when the bucket does not hold, or blocks and verifies t, or
// returns the memoized outcome of an earlier lookup with the same LHS
// projection.
func (x *matcher) lookup(i int, t *relation.Tuple, topL int) lookup {
	if x.buckets != nil {
		id := x.col[i]
		if id == noBucket {
			return lookup{}
		}
		ids := x.buckets[id]
		if x.holds[id] {
			return lookup{ids: ids, block: len(ids)}
		}
		return lookup{ids: x.verify(t, ids), block: len(ids)}
	}
	if x.memo == nil {
		ids, scanned := x.block(t, topL)
		return lookup{ids: x.verify(t, ids), block: len(ids), scanned: scanned}
	}
	x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.lhsAttrs)
	if en, ok := x.memo.lookups[string(x.keyBuf)]; ok {
		return en
	}
	ids, scanned := x.block(t, topL)
	en := lookup{ids: x.verify(t, ids), block: len(ids), scanned: scanned}
	if x.store {
		x.memo.putLookup(string(x.keyBuf), en)
	}
	return en
}

// block returns the raw candidate ids for t, and whether it had to fall
// back to a full scan of the master relation. On the suffix-array path
// they are the tuples of the l = topL master values closest to t's value v
// among those within edit distance K of it, ordered by (distance, first
// appearance in master) and each expanded to its master tuples in
// ascending order. The values within K are found from editCandidates'
// exact list, the one a certification of v reads too, or, when v is too
// short for any piece bound (len(v) <= K), by measuring every master
// value, which counts as a full scan. The ids are distinct: each master
// tuple is listed under its one value. The returned slice is scratch, only
// valid until the next block call: the suffix-array path reuses the
// matcher's candidate buffer, and the fallback returns a shared identity
// list built once. Nothing derived from it is memoized without a copy:
// lookup memoizes verify's fresh output.
func (x *matcher) block(t *relation.Tuple, topL int) (ids []int, fullScan bool) {
	if x.tree == nil {
		return x.all, true
	}
	v := t.Values[x.simData]
	if relation.IsNull(v) {
		return nil, false
	}
	x.nearBuf = x.nearBuf[:0]
	measure := func(sid int32) {
		if d, ok := similarity.LevenshteinWithin(v, x.tree.String(int(sid)), x.simK); ok {
			x.nearBuf = append(x.nearBuf, near{sid, d})
		}
	}
	if cands, ok := x.editCandidates(v); ok {
		// The list holds every tuple of each candidate value in ascending
		// order, so each value is measured once, at its first tuple.
		for _, j := range cands {
			if sid := x.sidOf[j]; x.treeIDs[sid][0] == j {
				measure(sid)
			}
		}
	} else {
		fullScan = true
		for sid := range x.treeIDs {
			measure(int32(sid))
		}
	}
	slices.SortFunc(x.nearBuf, func(a, b near) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.sid, b.sid))
	})
	ids = x.idsBuf[:0]
	for _, n := range x.nearBuf[:min(topL, len(x.nearBuf))] {
		ids = append(ids, x.treeIDs[n.sid]...)
	}
	x.idsBuf = ids
	return ids, fullScan
}

// certCandidates returns, in ascending master-tuple order, an exact blocking
// superset of the master tuples on which x's MD premise can hold for tuple
// i, whose values are t:
// every (t, s) pair with s outside the returned set fails at least one
// premise clause. On the suffix-array path that set is editCandidates'.
// ok is false when no index yields an exact superset for this tuple — the
// MD has no equality clause and either no suffix array was built (no
// edit-distance clause) or t's value is too short for either bound to hold
// — and the caller must fall back to scanning Dm for this tuple.
//
// Unlike block it never truncates: block serves repair, where TopL capping a
// candidate list only costs recall, while certCandidates serves the Checker,
// where a dropped candidate would falsify the certified Report. The
// returned list is shared with the memo or the equality index: callers
// must not modify it. The equality path returns tuple i's bucket off the
// premise column. The matcher's statistics are untouched (certification
// must not count as matching work).
func (x *matcher) certCandidates(i int, t *relation.Tuple) (ids []int, ok bool) {
	switch {
	case x.buckets != nil:
		// Exact: a master tuple outside the bucket differs on an equality
		// clause's projection. Buckets hold ascending indexes.
		if id := x.col[i]; id != noBucket {
			return x.buckets[id], true
		}
		return nil, true
	case x.tree != nil:
		v := t.Values[x.simData]
		if relation.IsNull(v) {
			return nil, true // the edit clause never matches null
		}
		return x.editCandidates(v)
	default:
		return nil, false // no usable index (e.g. a lone Jaro clause)
	}
}

// editCandidates returns, in ascending order, the master tuples of every
// value that may lie within edit distance K of the non-null value v, from
// the memo when an earlier query stored it. A miss asks the suffix array
// for the count filter's values (suffixtree.AppendEditCandidates): master
// values holding 2 of v's K+3 pieces within K of their places. Values too
// short for it take every value sharing one of v's K+1 pieces. ok is false
// when v is too short for either bound (len(v) <= K, where v can be edited
// into anything without leaving a piece intact). A storing matcher
// memoizes the list under v; a non-storing one keeps it in fresh and
// reads it from there on its next query of v.
func (x *matcher) editCandidates(v string) (ids []int, ok bool) {
	if ids, ok := x.memo.cert[v]; ok {
		return ids, true
	}
	if ids, ok := x.fresh[v]; ok {
		return ids, true
	}
	// Both enumerations are exact supersets of the master values within
	// edit distance K of v: K edits leave 2 of the filter's K+2 kept
	// pieces intact and near their places, and 1 of the K+1. The count
	// filter does not let a piece every value shares (a common prefix)
	// make a candidate on its own. Each matched string id maps to the
	// ascending list of master tuples holding that value; the lists are
	// pairwise disjoint (one value per tuple), so sorting their union
	// restores the single ascending order a nested scan would visit.
	var filtered bool
	x.sidBuf, filtered = x.tree.AppendEditCandidates(x.sidBuf[:0], v, x.simK)
	if !filtered {
		minLen := len(v) / (x.simK + 1)
		if minLen < 1 {
			return nil, false // bound vacuous: K edits can consume all of v
		}
		x.sidBuf = x.tree.AppendCommon(x.sidBuf[:0], v, minLen)
	}
	if len(x.sidBuf) == 1 {
		ids = x.treeIDs[x.sidBuf[0]] // an immutable index list: share it, no copy
	} else {
		n := 0
		for _, sid := range x.sidBuf {
			n += len(x.treeIDs[sid])
		}
		ids = make([]int, 0, n)
		for _, sid := range x.sidBuf {
			ids = append(ids, x.treeIDs[sid]...)
		}
		slices.Sort(ids)
	}
	if x.store {
		x.memo.putCert(v, ids)
	} else {
		if x.fresh == nil {
			x.fresh = make(map[string][]int)
		}
		x.fresh[v] = ids
	}
	return ids, true
}

// verify filters candidate ids down to those on which the full premise
// holds.
func (x *matcher) verify(t *relation.Tuple, ids []int) []int {
	var out []int
	for _, j := range ids {
		if x.m.MatchLHS(t, x.master.Tuples[j]) {
			out = append(out, j)
		}
	}
	return out
}

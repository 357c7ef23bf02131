package clean

import (
	"context"

	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/suffixtree"
)

// matcher finds, for a data tuple, the master tuples on which an MD premise
// holds, without scanning all of Dm (Section 5.2). Two blocking indexes are
// built over the master relation:
//
//   - a hash index keyed on the projection of the master attributes of the
//     equality clauses, when the MD has any;
//   - otherwise, a generalized suffix array over the active domain of the
//     master attribute of the first edit-distance clause, queried with the
//     LCS bound LCSubstring >= max(|a|,|b|)/(K+1).
//
// Candidates from either index are then verified against the full premise.
// MDs with neither index (e.g. a single Jaro-Winkler clause) fall back to a
// full scan, which the stats expose so callers can notice.
//
// Without an equality index, a lookup is a pure function of the tuple's
// LHS values and the immutable master, so those matchers memoize it (see
// memo): tuples share few distinct values, and each is blocked and verified
// once per memo lifetime rather than once per tuple.
type matcher struct {
	m      *md.MD
	master *relation.Relation

	eqDataAttrs   []int // data attrs of equality clauses
	eqMasterAttrs []int // master attrs of equality clauses
	eqIndex       map[string][]int

	simData   int // data attr of the blockable edit clause, -1 if none
	simMaster int
	simK      int
	tree      *suffixtree.Tree
	treeIDs   [][]int // suffix-array string id -> master tuple indexes

	// allIDs is the identity list the index-less fallback scans, built once
	// and shared read-only with every fork.
	allIDs []int

	// memo is shared by the matcher, its forks and, on a stream, every
	// later sub-engine's matcher; nil on equality-index matchers. lhsAttrs
	// are the data attributes of every premise clause, the projection
	// lookups are keyed on. A fork only reads memo: it runs beside other
	// forks, so a miss is computed and returned but not stored. Every
	// write happens at a sequential point — on a matcher that is not a
	// fork, or in prefetch's store step — so no lock is needed.
	memo     *memo
	lhsAttrs []int
	isFork   bool

	// Lookup scratch, reused across probes so the hot path does not
	// allocate per tuple: idsBuf backs the candidate list, keyBuf backs the
	// equality-index key and the memo key (probed as string(keyBuf), which
	// allocates nothing), seen/seenGen dedupe candidates produced by several
	// blocking keys (first occurrence wins, preserving the verification
	// order) so no master tuple is verified twice for one probe, topBuf
	// and sidBuf receive the suffix-array hits of block and certCandidates,
	// and certLists backs the per-string id lists certCandidates merges.
	// Scratch is private per matcher; fanOut workers probe through forks.
	idsBuf    []int
	keyBuf    []byte
	seen      []uint64
	seenGen   uint64
	topBuf    []suffixtree.Match
	sidBuf    []int32
	certLists [][]int

	stats MatchStats
}

// memo holds a matcher's pure lookups. Entries are shared and read-only
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
	// cert maps a similarity value to certCandidates' merged ascending list.
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

// fork returns a matcher for concurrent use — one certify task, one
// prefetch chunk — sharing x's immutable blocking indexes and its memo,
// with private lookup scratch and statistics. Forks never write the memo,
// so they read it without locks.
func (x *matcher) fork() *matcher {
	f := x.reuse()
	f.isFork = true
	return f
}

// reuse returns a copy of x with fresh lookup scratch and zeroed
// statistics that writes x's memo. A stream's sub-engines use it: they run
// one at a time, so each is the memo's only writer while it runs, and the
// memo outlives every update.
func (x *matcher) reuse() *matcher {
	f := *x
	f.idsBuf, f.keyBuf, f.seen, f.seenGen, f.certLists = nil, nil, nil, 0, nil
	f.topBuf, f.sidBuf, f.isFork = nil, nil, false
	f.stats = MatchStats{MasterSize: x.stats.MasterSize}
	return &f
}

// bound sets the memo's size limit for a data relation of n tuples:
// 2·(|D|+|Dm|) entries per map (docs/streaming.md). A run holds one key
// per distinct value it looks up, typically a fraction of |D|; a long
// stream whose updates keep bringing new values reaches the limit, and the
// clear sheds the values it churned through.
func (x *matcher) bound(n int) {
	if x.memo != nil {
		x.memo.limit = 2 * (n + x.master.Len())
	}
}

// prefetch memoizes every lookup a pass over the tuples ids of d (all of d
// when ids is nil) would miss, computing the misses in parallel: the first
// tuple of each distinct key the memo lacks is looked up by one of up to
// workers forks, each taking one contiguous chunk, and the results are
// stored in the order their keys first appear. The pass then only hits;
// certification's forks would otherwise recompute every miss without
// storing it. cert selects certCandidates' entries,
// else lookup's under topL. Like any memo write it changes no output. It
// runs at a sequential point, so it may use x's own scratch; on an error,
// fanOut's, nothing is stored. fj arms fanOut's scheduling hook.
func (x *matcher) prefetch(ctx context.Context, fj *fault.Injector, workers int, d *relation.Relation, ids []int, cert bool, topL int) error {
	if x.memo == nil || (cert && x.tree == nil) {
		return nil
	}
	var keys []string
	var todo []*relation.Tuple
	pending := make(map[string]bool)
	visit := func(t *relation.Tuple) {
		var key string
		if cert {
			v := t.Values[x.simData]
			if relation.IsNull(v) || len(v)/(x.simK+1) < 1 {
				return // certCandidates answers without the index or memo
			}
			if _, ok := x.memo.cert[v]; ok || pending[v] {
				return
			}
			key = v
		} else {
			x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.lhsAttrs)
			if _, ok := x.memo.lookups[string(x.keyBuf)]; ok || pending[string(x.keyBuf)] {
				return
			}
			key = string(x.keyBuf)
		}
		pending[key] = true
		keys = append(keys, key)
		todo = append(todo, t)
	}
	if ids == nil {
		for _, t := range d.Tuples {
			visit(t)
		}
	} else {
		for _, i := range ids {
			visit(d.Tuples[i])
		}
	}
	var lookups []lookup
	var certs [][]int
	if cert {
		certs = make([][]int, len(todo))
	} else {
		lookups = make([]lookup, len(todo))
	}
	n := min(len(todo), workers)
	err := fanOut(ctx, fj, "prefetch", workers, n, func(c int) {
		f := x.fork()
		for k := c * len(todo) / n; k < (c+1)*len(todo)/n; k++ {
			if cert {
				certs[k], _ = f.certCandidates(todo[k])
			} else {
				lookups[k] = f.lookup(todo[k], topL)
			}
		}
	})
	if err != nil {
		return err
	}
	// Clear up front when the keys would take the map past the bound, so
	// no entry stored here is shed before the pass reads it.
	m := x.memo
	if cert {
		if len(m.cert)+len(keys) > m.limit {
			clear(m.cert)
		}
		for k, key := range keys {
			m.putCert(key, certs[k])
		}
	} else {
		if len(m.lookups)+len(keys) > m.limit {
			clear(m.lookups)
		}
		for k, key := range keys {
			m.putLookup(key, lookups[k])
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

// buildEqIndex indexes the master relation by its projection on attrs. The
// buckets hold ascending tuple indexes, which blocked enumerations rely on
// to preserve the (T, S) order of a nested scan.
func buildEqIndex(master *relation.Relation, attrs []int) map[string][]int {
	idx := make(map[string][]int, master.Len())
	for j, s := range master.Tuples {
		key := s.Key(attrs)
		idx[key] = append(idx[key], j)
	}
	return idx
}

func newMatcher(m *md.MD, master *relation.Relation) *matcher {
	x := &matcher{m: m, master: master, simData: -1}
	x.stats.MasterSize = master.Len()
	x.eqDataAttrs, x.eqMasterAttrs = eqClauses(m)
	for _, cl := range m.LHS {
		if k, ok := cl.Pred.EditThreshold(); ok && !cl.Pred.Exact && x.simData < 0 {
			x.simData, x.simMaster, x.simK = cl.DataAttr, cl.MasterAttr, k
		}
	}
	if len(x.eqDataAttrs) > 0 {
		x.eqIndex = buildEqIndex(master, x.eqMasterAttrs)
		return x
	}
	for _, cl := range m.LHS {
		x.lhsAttrs = append(x.lhsAttrs, cl.DataAttr)
	}
	x.memo = &memo{}
	x.bound(0) // until an engine or checker knows |D|
	if x.simData >= 0 {
		byValue := make(map[string]int)
		var names []string
		for j, s := range master.Tuples {
			v := s.Values[x.simMaster]
			if relation.IsNull(v) {
				continue
			}
			id, ok := byValue[v]
			if !ok {
				id = len(names)
				byValue[v] = id
				names = append(names, v)
				x.treeIDs = append(x.treeIDs, nil)
			}
			x.treeIDs[id] = append(x.treeIDs[id], j)
		}
		// Index every name here, before any fork shares the array, so
		// fanOut workers only ever read it.
		x.tree = suffixtree.New(names...)
		return x
	}
	// No usable index: every lookup scans Dm. The identity list is built
	// here, not lazily in block, so forks can share it.
	x.allIDs = make([]int, master.Len())
	for j := range x.allIDs {
		x.allIDs[j] = j
	}
	return x
}

// candidates returns the master tuple indexes on which the full MD premise
// holds for t, going through the blocking indexes when available, and counts
// the query in the matcher's statistics. The slice may be shared with the
// memo: callers must not modify it.
func (x *matcher) candidates(t *relation.Tuple, topL int) []int {
	en := x.lookup(t, topL)
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
func (x *matcher) probe(t *relation.Tuple, topL int) []int {
	return x.lookup(t, topL).ids
}

// lookup blocks and verifies t, or returns the memoized outcome of an
// earlier lookup with the same LHS projection.
func (x *matcher) lookup(t *relation.Tuple, topL int) lookup {
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
	if !x.isFork {
		x.memo.putLookup(string(x.keyBuf), en)
	}
	return en
}

// block returns the raw candidate ids for t from the blocking indexes, and
// whether it had to fall back to a full scan of the master relation. The
// returned slice is scratch, only valid until the next block call: the
// equality path aliases the index bucket, the suffix-array path reuses the
// matcher's candidate buffer, and the fallback returns a shared identity
// list built once. Nothing derived from it is memoized without a copy:
// lookup memoizes verify's fresh output.
func (x *matcher) block(t *relation.Tuple, topL int) (ids []int, fullScan bool) {
	switch {
	case x.eqIndex != nil:
		x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.eqDataAttrs)
		return x.eqIndex[string(x.keyBuf)], false
	case x.tree != nil:
		v := t.Values[x.simData]
		if relation.IsNull(v) {
			return nil, false
		}
		if x.seen == nil {
			x.seen = make([]uint64, x.master.Len())
		}
		x.seenGen++
		ids = x.idsBuf[:0]
		// Partition v into K+1 contiguous pieces: at most K edits touch at
		// most K pieces, so edit(u, v) <= K implies u contains one piece
		// unchanged — a common substring of length >= floor(|v|/(K+1)).
		minLen := len(v) / (x.simK + 1)
		x.topBuf = x.tree.AppendTopL(x.topBuf[:0], v, topL, minLen)
		for _, mt := range x.topBuf {
			for _, j := range x.treeIDs[mt.ID] {
				if x.seen[j] != x.seenGen {
					x.seen[j] = x.seenGen
					ids = append(ids, j)
				}
			}
		}
		x.idsBuf = ids
		return ids, false
	default:
		return x.allIDs, true
	}
}

// certCandidates returns, in ascending master-tuple order, an exact blocking
// superset of the master tuples on which x's MD premise can hold for t:
// every (t, s) pair with s outside the returned set fails at least one
// premise clause. ok is false when no index yields an exact superset for
// this tuple — the MD has no equality clause and either no suffix array was
// built (no edit-distance clause) or t's value is too short for the LCS
// pigeonhole bound to hold (len(v) <= K, where v can be edited into anything
// without leaving a piece intact) — and the caller must fall back to
// scanning Dm for this tuple.
//
// Unlike block it never truncates: block serves repair, where TopL capping a
// candidate list only costs recall, while certCandidates serves the Checker,
// where a dropped candidate would falsify the certified Report. On the
// suffix-array path the merged list is memoized under v and shared: callers
// must not modify it. The equality path aliases an index bucket, equally
// read-only. The matcher's statistics are untouched (certification must not
// count as matching work).
func (x *matcher) certCandidates(t *relation.Tuple) (ids []int, ok bool) {
	switch {
	case x.eqIndex != nil:
		// Exact: a master tuple outside the bucket differs on an equality
		// clause's projection. Buckets hold ascending indexes.
		x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.eqDataAttrs)
		return x.eqIndex[string(x.keyBuf)], true
	case x.tree != nil:
		v := t.Values[x.simData]
		if relation.IsNull(v) {
			return nil, true // the edit clause never matches null
		}
		minLen := len(v) / (x.simK + 1)
		if minLen < 1 {
			return nil, false // bound vacuous: K edits can consume all of v
		}
		if ids, ok := x.memo.cert[v]; ok {
			return ids, true
		}
		// Every master value within edit distance K of v contains one of
		// v's K+1 pieces unchanged, i.e. shares a substring of length >=
		// minLen — so the array enumeration is an exact superset. Each
		// matched string id maps to the ascending list of master tuples
		// holding that value; the lists are pairwise disjoint (one value
		// per tuple), and the order-preserving merge below restores the
		// single ascending order a nested scan would visit.
		lists, n := x.certLists[:0], 0
		x.sidBuf = x.tree.AppendCommon(x.sidBuf[:0], v, minLen)
		for _, sid := range x.sidBuf {
			if l := x.treeIDs[sid]; len(l) > 0 {
				lists = append(lists, l)
				n += len(l)
			}
		}
		x.certLists = lists
		if len(lists) == 1 {
			ids = lists[0] // an immutable index list: share it, no copy
		} else {
			ids = mergeAscending(lists, make([]int, 0, n))
		}
		if !x.isFork {
			x.memo.putCert(v, ids)
		}
		return ids, true
	default:
		return nil, false // no usable index (e.g. a lone Jaro clause)
	}
}

// mergeAscending merges ascending, pairwise-disjoint int lists into out,
// preserving ascending order — the order-preserving candidate merge of the
// blocked certification path. A binary min-heap over the list heads keeps
// the merge O(n log k) without materializing and sorting the union. The
// heads of lists are consumed in place; the underlying arrays are not
// touched.
func mergeAscending(lists [][]int, out []int) []int {
	switch len(lists) {
	case 0:
		return out
	case 1:
		return append(out, lists[0]...)
	}
	down := func(k int) {
		for { //det:ok ctxflow heap sift-down: k strictly descends a log-depth heap, bounded without any cancellation concern
			l := 2*k + 1
			if l >= len(lists) {
				return
			}
			if r := l + 1; r < len(lists) && lists[r][0] < lists[l][0] {
				l = r
			}
			if lists[k][0] <= lists[l][0] {
				return
			}
			lists[k], lists[l] = lists[l], lists[k]
			k = l
		}
	}
	for k := len(lists)/2 - 1; k >= 0; k-- {
		down(k)
	}
	for len(lists) > 0 { //det:ok ctxflow bounded merge of precomputed candidate lists: consumes one head per pass, total work is the sum of list lengths
		out = append(out, lists[0][0])
		if rest := lists[0][1:]; len(rest) > 0 {
			lists[0] = rest
		} else {
			lists[0] = lists[len(lists)-1]
			lists = lists[:len(lists)-1]
		}
		down(0)
	}
	return out
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

package clean

import (
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

	// Lookup scratch, reused across probes so the hot path does not
	// allocate per tuple: idsBuf backs the candidate list, keyBuf backs the
	// equality-index key (probed as string(keyBuf), which allocates
	// nothing), seen/seenGen dedupe candidates produced by several
	// blocking keys (first occurrence wins, preserving the verification
	// order) so no master tuple is verified twice for one probe, topBuf
	// and sidBuf receive the suffix-array hits of block and certCandidates,
	// and certLists backs the per-string id lists certCandidates merges.
	// Scratch is private per matcher; pool workers probe through forks.
	idsBuf    []int
	keyBuf    []byte
	seen      []uint64
	seenGen   uint64
	topBuf    []suffixtree.Match
	sidBuf    []int32
	certLists [][]int

	stats MatchStats
}

// fork returns a matcher sharing x's immutable blocking indexes — the
// equality buckets, the suffix array and its id lists, the fallback identity
// list — with private lookup scratch and statistics, so pool workers can
// probe concurrently. Fork statistics are merged back into x.stats by
// order-independent sums after each parallel phase.
func (x *matcher) fork() *matcher {
	f := *x
	f.idsBuf, f.keyBuf, f.seen, f.seenGen, f.certLists = nil, nil, nil, 0, nil
	f.topBuf, f.sidBuf = nil, nil
	f.stats = MatchStats{MasterSize: x.stats.MasterSize}
	return &f
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
	switch {
	case len(x.eqDataAttrs) > 0:
		x.eqIndex = buildEqIndex(master, x.eqMasterAttrs)
	case x.simData >= 0:
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
		// pool workers only ever read it.
		x.tree = suffixtree.New(names...)
	default:
		// No usable index: every lookup scans Dm. The identity list is
		// built here, not lazily in block, so forks can share it.
		x.allIDs = make([]int, master.Len())
		for j := range x.allIDs {
			x.allIDs[j] = j
		}
	}
	return x
}

// candidates returns the master tuple indexes on which the full MD premise
// holds for t, going through the blocking indexes when available, and counts
// the query in the matcher's statistics.
func (x *matcher) candidates(t *relation.Tuple, topL int) []int {
	x.stats.Lookups++
	ids, scanned := x.block(t, topL)
	if scanned {
		x.stats.FullScans++
	}
	x.stats.Candidates += len(ids)
	out := x.verify(t, ids)
	x.stats.Verified += len(out)
	return out
}

// probe is candidates without the statistics. hRepair's master-data
// tie-breaking uses it so the per-MD stats keep measuring matching work
// only, one lookup per tuple per round.
func (x *matcher) probe(t *relation.Tuple, topL int) []int {
	ids, _ := x.block(t, topL)
	return x.verify(t, ids)
}

// block returns the raw candidate ids for t from the blocking indexes, and
// whether it had to fall back to a full scan of the master relation. The
// returned slice is only valid until the next block call: the equality path
// aliases the index bucket, the suffix-array path reuses the matcher's
// candidate buffer, and the fallback returns a shared identity list built
// once.
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
// where a dropped candidate would falsify the certified Report. The returned
// slice shares the matcher's scratch and is only valid until the next
// lookup; the matcher's statistics are untouched (certification must not
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
		// Every master value within edit distance K of v contains one of
		// v's K+1 pieces unchanged, i.e. shares a substring of length >=
		// minLen — so the array enumeration is an exact superset. Each
		// matched string id maps to the ascending list of master tuples
		// holding that value; the lists are pairwise disjoint (one value
		// per tuple), and the order-preserving merge below restores the
		// single ascending order a nested scan would visit.
		lists := x.certLists[:0]
		x.sidBuf = x.tree.AppendCommon(x.sidBuf[:0], v, minLen)
		for _, sid := range x.sidBuf {
			if l := x.treeIDs[sid]; len(l) > 0 {
				lists = append(lists, l)
			}
		}
		x.certLists = lists
		x.idsBuf = mergeAscending(lists, x.idsBuf[:0])
		return x.idsBuf, true
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

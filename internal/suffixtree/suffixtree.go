// Package suffixtree implements the generalized suffix array used for
// longest-common-substring (LCS) blocking in Section 5.2 of the paper.
//
// The paper blocks similarity MDs with a generalized suffix tree over the
// distinct strings of a master-data attribute's active domain. This package
// answers the same queries from a flat suffix array: every suffix of every
// indexed string, sorted, each one a view into its string, so nothing is
// copied and no separator byte is needed (values may hold any byte). A
// lookup for a query string v binary-searches each of v's minLen-byte
// pieces, walks the contiguous run of suffixes starting with that piece and
// extends each hit byte by byte to its exact common length. The top-l
// indexed strings ranked by LCS with v stand in for the whole master
// relation, reducing the MD-matching search space from |Dm| to a constant l.
// The package keeps its historical name.
package suffixtree

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Tree is a generalized suffix array over a set of strings. Queries only
// read an indexed Tree, so any number may run concurrently. Add only
// appends; the first query after it sorts the array again, so Add and that
// query must not race with other queries.
type Tree struct {
	strs []string
	sufs []string // every suffix of every indexed string, ascending
	ids  []int32  // ids[k] owns sufs[k]; equal suffixes ascend by id
	n    int      // strings covered by sufs; below len(strs) after an Add
}

// New returns a tree indexing strs, with ids in argument order. The array
// is sorted before New returns, so the tree is ready for concurrent
// queries.
func New(strs ...string) *Tree {
	t := &Tree{strs: slices.Clone(strs)}
	t.index()
	return t
}

// Len returns the number of indexed strings.
func (t *Tree) Len() int { return len(t.strs) }

// String returns the indexed string with the given id.
func (t *Tree) String(id int) string { return t.strs[id] }

// Add indexes s and returns its id. Duplicate strings receive distinct ids;
// callers indexing an active domain should deduplicate first.
func (t *Tree) Add(s string) int {
	t.strs = append(t.strs, s)
	return len(t.strs) - 1
}

// index sorts every suffix of every string, breaking ties by id.
func (t *Tree) index() {
	type suffix struct {
		s  string
		id int32
	}
	total := 0
	for _, s := range t.strs {
		total += len(s)
	}
	all := make([]suffix, 0, total)
	for id, s := range t.strs {
		for j := range len(s) {
			all = append(all, suffix{s[j:], int32(id)})
		}
	}
	slices.SortFunc(all, func(a, b suffix) int {
		if c := strings.Compare(a.s, b.s); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	t.sufs, t.ids = make([]string, total), make([]int32, total)
	for k, x := range all {
		t.sufs[k], t.ids[k] = x.s, x.id
	}
	t.n = len(t.strs)
}

// span returns the run [lo, hi) of suffixes that start with p, indexing
// first if an Add is pending.
func (t *Tree) span(p string) (lo, hi int) {
	if t.n < len(t.strs) {
		t.index()
	}
	lo = sort.SearchStrings(t.sufs, p)
	hi = lo
	for hi < len(t.sufs) && strings.HasPrefix(t.sufs[hi], p) {
		hi++
	}
	return lo, hi
}

// StringsWithCommonSubstring returns the ids of every indexed string sharing
// with v a common substring of length at least minLen, in ascending id order.
// Unlike TopL it neither ranks nor truncates: with minLen chosen as the LCS
// blocking bound max(1, |v|/(K+1)), the result is the *exact* superset of the
// indexed strings within edit distance K of v — every string closer than K
// shares an unedited piece of v at least that long — which is what lets the
// Checker certify an edit-clause MD from the index instead of scanning the
// whole master relation. A minLen < 1 would make the bound vacuous (strings
// sharing no substring with v can still be within distance K); callers must
// handle that case themselves, so it panics here.
func (t *Tree) StringsWithCommonSubstring(v string, minLen int) []int32 {
	return t.AppendCommon(nil, v, minLen)
}

// AppendCommon appends the result of StringsWithCommonSubstring(v, minLen)
// to dst and returns the extended slice, so callers can reuse one buffer
// across queries.
func (t *Tree) AppendCommon(dst []int32, v string, minLen int) []int32 {
	if minLen < 1 {
		panic("suffixtree: StringsWithCommonSubstring needs minLen >= 1")
	}
	start := len(dst)
	for i := 0; i+minLen <= len(v); i++ {
		lo, hi := t.span(v[i : i+minLen])
		dst = append(dst, t.ids[lo:hi]...)
	}
	hits := dst[start:]
	slices.Sort(hits)
	return dst[:start+len(slices.Compact(hits))]
}

// Match is a blocking candidate: an indexed string and the length of its
// longest common substring with the query.
type Match struct {
	ID  int
	LCS int
}

// TopL returns up to l indexed strings ranked by LCS length with v
// (descending, ties broken by id), considering only common substrings of
// length at least minLen. minLen implements the blocking bound of Section
// 5.2: strings within edit distance K of v share a common substring of
// length at least max(|u|,|v|)/(K+1), so candidates below that bound can be
// skipped. A minLen < 1 is treated as 1.
func (t *Tree) TopL(v string, l, minLen int) []Match {
	return t.AppendTopL(nil, v, l, minLen)
}

// AppendTopL appends the result of TopL(v, l, minLen) to dst and returns
// the extended slice, so callers can reuse one buffer across queries.
func (t *Tree) AppendTopL(dst []Match, v string, l, minLen int) []Match {
	if l <= 0 {
		return dst
	}
	minLen = max(minLen, 1)
	start := len(dst)
	for i := 0; i+minLen <= len(v); i++ {
		lo, hi := t.span(v[i : i+minLen])
		for k := lo; k < hi; k++ {
			lcs := minLen + commonPrefix(v[i+minLen:], t.sufs[k][minLen:])
			dst = append(dst, Match{ID: int(t.ids[k]), LCS: lcs})
		}
	}
	// Keep each id's longest hit, then rank.
	hits := dst[start:]
	slices.SortFunc(hits, func(a, b Match) int {
		if a.ID != b.ID {
			return cmp.Compare(a.ID, b.ID)
		}
		return cmp.Compare(b.LCS, a.LCS)
	})
	hits = slices.CompactFunc(hits, func(a, b Match) bool { return a.ID == b.ID })
	slices.SortFunc(hits, func(a, b Match) int {
		if a.LCS != b.LCS {
			return cmp.Compare(b.LCS, a.LCS)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return dst[:start+min(l, len(hits))]
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	k := 0
	for k < n && a[k] == b[k] {
		k++
	}
	return k
}

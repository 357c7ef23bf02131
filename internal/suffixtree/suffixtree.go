// Package suffixtree implements the generalized suffix array used for
// longest-common-substring (LCS) blocking in Section 5.2 of the paper.
//
// The paper blocks similarity MDs with a generalized suffix tree over the
// distinct strings of a master-data attribute's active domain. This package
// answers the same queries from a flat suffix array: every suffix of every
// indexed string, sorted, each one named by its string and offset, so
// nothing is copied and no separator byte is needed (values may hold any
// byte). Each entry also carries the suffix's first 8 bytes as an integer
// key: the array is built by a radix sort on the keys, with a string sort
// only inside runs of equal keys, and searches compare keys first. A
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

// Tree is a generalized suffix array over a set of strings. Each entry
// names one suffix by its string id and offset and carries the suffix's
// first 8 bytes as an integer key, so sorting and searching compare keys
// and touch the string bytes only where keys tie. Queries only read an
// indexed Tree, so any number may run concurrently. Add only appends; the
// first query after it sorts the array again, so Add and that query must
// not race with other queries.
type Tree struct {
	strs []string
	sa   []suffix // every suffix of every indexed string, ascending; equal suffixes ascend by id
	n    int      // strings covered by sa; below len(strs) after an Add
}

// suffix is strs[id][off:]. key holds its first 8 bytes big-endian, padded
// with zeros, so a suffix below another never has the larger key.
type suffix struct {
	key     uint64
	id, off int32
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

// suffix returns the text of entry x.
func (t *Tree) suffix(x suffix) string { return t.strs[x.id][x.off:] }

// index sorts every suffix of every string, breaking ties by id: a stable
// radix sort on the keys of entries laid out in (id, off) order, then a
// stable string sort inside each run of equal keys.
func (t *Tree) index() {
	total := 0
	for _, s := range t.strs {
		total += len(s)
	}
	// Filling each string from its end derives every key from the one
	// after it with a shift, instead of reading 8 bytes per suffix.
	sa, buf := make([]suffix, total), make([]suffix, total)
	k := total
	for id := len(t.strs) - 1; id >= 0; id-- {
		s := t.strs[id]
		var key uint64
		for off := len(s) - 1; off >= 0; off-- {
			key = key>>8 | uint64(s[off])<<56
			k--
			sa[k] = suffix{key, int32(id), int32(off)}
		}
	}
	sa = radixSort(sa, buf)
	for lo := 0; lo < len(sa); {
		hi := lo + 1
		for hi < len(sa) && sa[hi].key == sa[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(sa[lo:hi], func(a, b suffix) int {
				return strings.Compare(t.suffix(a), t.suffix(b))
			})
		}
		lo = hi
	}
	t.sa, t.n = sa, len(t.strs)
}

// radixSort sorts a stably by key, least significant byte first, using buf
// (as long as a) for scratch, and returns whichever of the two holds the
// result. A pass whose byte is the same in every key is skipped.
func radixSort(a, buf []suffix) []suffix {
	var counts [8][256]int
	for _, x := range a {
		for b := range 8 {
			counts[b][byte(x.key>>(8*b))]++
		}
	}
	for b := range 8 {
		c := &counts[b]
		if len(a) == 0 || c[byte(a[0].key>>(8*b))] == len(a) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, x := range a {
			d := byte(x.key >> (8 * b))
			buf[c[d]] = x
			c[d]++
		}
		a, buf = buf, a
	}
	return a
}

// prefixKey returns p's key: its first 8 bytes big-endian, zero-padded.
func prefixKey(p string) uint64 {
	var key uint64
	for i := range 8 {
		key <<= 8
		if i < len(p) {
			key |= uint64(p[i])
		}
	}
	return key
}

// span returns the run [lo, hi) of suffixes that start with p, indexing
// first if an Add is pending. The search decides on keys and compares
// strings only where a key equals p's.
func (t *Tree) span(p string) (lo, hi int) {
	if t.n < len(t.strs) {
		t.index()
	}
	pk := prefixKey(p)
	lo = sort.Search(len(t.sa), func(k int) bool {
		x := t.sa[k]
		if x.key != pk {
			return x.key > pk
		}
		return t.suffix(x) >= p
	})
	hi = lo
	for hi < len(t.sa) && strings.HasPrefix(t.suffix(t.sa[hi]), p) {
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
		for _, x := range t.sa[lo:hi] {
			dst = append(dst, x.id)
		}
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
		for _, x := range t.sa[lo:hi] {
			lcs := minLen + commonPrefix(v[i+minLen:], t.suffix(x)[minLen:])
			dst = append(dst, Match{ID: int(x.id), LCS: lcs})
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

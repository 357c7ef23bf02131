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
// only inside runs of equal keys, and searches compare keys first. The
// suffixes starting with a piece of a query string v form one contiguous
// run, whose two ends are found by binary search (the end by galloping from
// the start). AppendEditCandidates counts, per string, the pieces of v
// found near their place, and AppendCommon lists the strings holding one
// of v's minLen-byte pieces, for values too short to filter: these two
// exact edit-distance candidate queries are all the engine calls, once per
// distinct value, and both its repair blocking (the l closest values
// within K) and its certification read the answer. TopL/AppendTopL extend
// each hit of v's pieces byte by byte to its exact common length and rank
// the indexed strings by LCS with v; no engine path calls them any more,
// and they stay for their tests and the unibench replay. The package keeps
// its historical name.
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
// strings only where a key equals p's. The run's end is found by galloping
// from lo and then binary searching the last step, so both ends cost
// O(log run) and a short run costs a few probes.
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
	// The run's suffixes share p's first min(len(p), 8) bytes, which sit
	// at the top of the key; the rest of the key varies inside the run.
	mask := ^uint64(0)
	if len(p) < 8 {
		mask <<= 8 * (8 - len(p))
	}
	in := func(k int) bool {
		x := t.sa[k]
		return x.key&mask == pk&mask && strings.HasPrefix(t.suffix(x), p)
	}
	if lo == len(t.sa) || !in(lo) {
		return lo, lo
	}
	last, step := lo, 1 // in(last) holds
	for last+step < len(t.sa) && in(last+step) {
		last += step
		step *= 2
	}
	end := min(last+step, len(t.sa)) // !in(end), or end is the array's end
	hi = last + 1 + sort.Search(end-last-1, func(i int) bool { return !in(last + 1 + i) })
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

// AppendEditCandidates appends to dst, ascending and without duplicates,
// the ids of the indexed strings that may lie within edit distance k of v,
// and reports whether it could filter v at all. It is a q-gram count filter
// with a position bound: v is cut into p = k+3 disjoint pieces, the piece
// with the widest suffix-array run is skipped (ties to the lowest index),
// and a string is kept when at least 2 distinct kept pieces occur in it at
// an offset within k of their offset in v. The result is an exact superset
// of the strings within distance k: each edit destroys at most one piece and
// shifts a surviving piece by at most one byte, so k edits leave at least
// p-k-1 = 2 kept pieces intact, each within k of its place. Unlike
// AppendCommon, a piece shared by many strings (a common prefix) is not by
// itself enough to make a candidate.
//
// ok is false, with dst unchanged, when v is too short for 2-byte pieces
// (len(v)/p < 2); callers then fall back to AppendCommon. A negative k
// panics.
func (t *Tree) AppendEditCandidates(dst []int32, v string, k int) (_ []int32, ok bool) {
	if k < 0 {
		panic("suffixtree: AppendEditCandidates needs k >= 0")
	}
	p := k + 3
	if len(v)/p < 2 {
		return dst, false
	}
	var stack [16][2]int // piece spans; heap only for k > 13
	spans := stack[:0]
	skip := 0
	for i := range p {
		lo, hi := t.span(v[i*len(v)/p : (i+1)*len(v)/p])
		spans = append(spans, [2]int{lo, hi})
		if w := spans[skip]; hi-lo > w[1]-w[0] {
			skip = i
		}
	}
	start := len(dst)
	for i, sp := range spans {
		if i == skip {
			continue
		}
		off, from := i*len(v)/p, len(dst)
		for _, x := range t.sa[sp[0]:sp[1]] {
			if d := int(x.off) - off; -k <= d && d <= k {
				dst = append(dst, x.id)
			}
		}
		// A piece can sit twice near its place in one string; count it once.
		hits := dst[from:]
		slices.Sort(hits)
		dst = dst[:from+len(slices.Compact(hits))]
	}
	hits := dst[start:]
	slices.Sort(hits)
	n := start
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j] == hits[i] {
			j++
		}
		if j-i >= 2 {
			dst[n] = hits[i]
			n++
		}
		i = j
	}
	return dst[:n], true
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
// 5.2, which callers pass as |v|/(K+1) of the query value alone: cut v into
// K+1 pieces, and K edits leave at least one piece intact, so every string
// within edit distance K of v shares a common substring of that length
// with it. A minLen < 1 is treated as 1.
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

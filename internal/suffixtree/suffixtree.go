// Package suffixtree implements the positional q-gram index used for
// edit-distance blocking in Section 5.2 of the paper.
//
// The paper blocks similarity MDs with a generalized suffix tree over the
// distinct strings of a master-data attribute's active domain. This package
// answers the same substring queries from postings: a posting names one
// place of an indexed string by its string id and offset, so nothing is
// copied and values may hold any byte. Two tables file the postings:
//
//   - the triple table files every place with 3 bytes to go under a hash
//     of those 3 bytes, in buckets sized to the posting count (grams that
//     hash alike share a bucket);
//   - the pair table files every place under the pair of bytes starting
//     there (a string's last byte under that byte alone), one bucket per
//     pair, and keeps the buckets of the pairs starting with one byte
//     adjacent, so that byte's places are one range too. New builds the
//     triple table; the first query of a 1- or 2-byte piece builds this
//     one, which gen-shaped names never need.
//
// Inside a bucket, postings ascend by (offset, id), so the places within k
// of offset o are one window, found by two binary searches. Each table is
// built by counting passes over the bytes, with no sort.
//
// A piece of a query of 1 or 2 bytes reads its places off the pair table.
// A longer piece is looked up by one of its 3-byte grams, and a posting
// counts when the indexed string holds the whole piece there
// (strings.HasPrefix), which also drops the grams sharing the bucket, so
// every answer is exact for pieces of any length, a string's last byte
// included. AppendEditCandidates counts, per string, the pieces of v found
// near their place, and AppendCommon lists the strings holding one of v's
// minLen-byte pieces, for values too short to filter: these two exact
// edit-distance candidate queries are all the engine calls, once per
// distinct value, and both its repair blocking (the l closest values
// within K) and its certification read the answer. TopL/AppendTopL extend
// each place of v's pieces byte by byte to its exact common length and
// rank the indexed strings by LCS with v; no engine path calls them any
// more, and they stay for their tests and the unibench replay. The package
// keeps its historical name.
package suffixtree

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// Tree is a positional q-gram index over a set of strings. Queries only
// read an indexed Tree, apart from building the pair table on the first
// query that needs it, which they do once and race-free, so any number
// may run concurrently. Add only appends; the first query after it builds
// the tables again, so Add and that query must not race with other
// queries.
type Tree struct {
	strs []string
	n    int // strings covered by the tables; below len(strs) after an Add

	// trips files every place with 3 bytes to go under the top tripBits
	// bits of its gram's hash (tripBucket).
	trips    table
	tripBits int

	// The pair table, built by the first query of a 1- or 2-byte piece.
	// rank maps a byte to 1 + its rank among the bytes the strings hold, 0
	// for a byte none holds; sigma counts those bytes. Pair keys are built
	// from ranks, so the table has sigma·(sigma+1) buckets.
	pairOnce sync.Once
	pairs    table // every place, under pairKey
	rank     [256]uint16
	sigma    int
}

// table is a bucketed posting list: bucket b is posts[heads[b]:heads[b+1]].
type table struct {
	heads []int32
	posts []posting
}

// posting is the place strs[id][off:] of an indexed string.
type posting struct{ off, id int32 }

func (tb *table) bucket(b int) []posting { return tb.posts[tb.heads[b]:tb.heads[b+1]] }

// New returns a tree indexing strs, with ids in argument order. The
// triple table is built before New returns, so the tree is ready for
// concurrent queries.
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

// sync builds the tables again if an Add is pending.
func (t *Tree) sync() {
	if t.n < len(t.strs) {
		t.index()
	}
}

// gram returns the 3 bytes of s at off as one integer.
func gram(s string, off int) uint32 {
	return uint32(s[off])<<16 | uint32(s[off+1])<<8 | uint32(s[off+2])
}

// tripBucket returns the triple-table bucket of the 3 bytes of s at off:
// the top tripBits bits of a multiplicative hash of their gram.
func (t *Tree) tripBucket(s string, off int) int {
	return int((gram(s, off) * 0x9e3779b1) >> (32 - t.tripBits))
}

// pairKey returns the pair-table bucket of the place s[off:]: its byte's
// rank r times sigma+1, plus the next byte's rank (0 at s's last byte). The
// places starting with the byte of rank r are then buckets
// [(r-1)·(sigma+1), r·(sigma+1)). Both bytes must be indexed ones.
func (t *Tree) pairKey(s string, off int) int {
	k := (int(t.rank[s[off]]) - 1) * (t.sigma + 1)
	if off+1 < len(s) {
		k += int(t.rank[s[off+1]])
	}
	return k
}

// index builds the triple table, with one bucket per posting rounded up to
// a power of two, and leaves the pair table to the first query needing it.
// Resetting pairOnce is safe: index runs only in New or after an Add, when
// no query may run beside it.
func (t *Tree) index() {
	n3 := 0
	for _, s := range t.strs {
		n3 += max(len(s)-2, 0)
	}
	t.tripBits = bits.Len(uint(max(n3, 1) - 1))
	t.trips = t.build(1<<t.tripBits, n3, 3, t.tripBucket)
	t.pairOnce, t.pairs = sync.Once{}, table{}
	t.n = len(t.strs)
}

// build returns a table of nb buckets filing the postings of every place
// with at least q bytes to go, n of them, under key. It counts each
// bucket's postings and then places every posting, offset by offset and at
// one offset by id, so each bucket comes out ascending by (offset, id).
// Bucket b's count goes in heads[b+2], so the prefix sums leave heads[b+1]
// at b's start, the placing cursor, which ends at b's end.
func (t *Tree) build(nb, n, q int, key func(s string, off int) int) table {
	heads, posts := make([]int32, nb+2), make([]posting, n)
	for _, s := range t.strs {
		for off := range len(s) - q + 1 {
			heads[key(s, off)+2]++
		}
	}
	for b := 1; b < len(heads); b++ {
		heads[b] += heads[b-1]
	}
	// active lists, ascending, the ids of the strings with q bytes to go
	// at off.
	active := make([]int32, len(t.strs))
	for id := range active {
		active[id] = int32(id)
	}
	for off := 0; len(active) > 0; off++ {
		w := 0
		for _, id := range active {
			if s := t.strs[id]; off+q <= len(s) {
				active[w] = id
				w++
				b := key(s, off) + 1
				posts[heads[b]] = posting{int32(off), id}
				heads[b]++
			}
		}
		active = active[:w]
	}
	return table{heads[:nb+1], posts}
}

// pairTable returns the pair table, building it on the first call.
func (t *Tree) pairTable() *table {
	t.pairOnce.Do(func() {
		t.rank, t.sigma = [256]uint16{}, 0
		var seen [256]bool
		n := 0
		for _, s := range t.strs {
			n += len(s)
			for i := range len(s) {
				seen[s[i]] = true
			}
		}
		for c, ok := range seen {
			if ok {
				t.sigma++
				t.rank[c] = uint16(t.sigma)
			}
		}
		t.pairs = t.build(t.sigma*(t.sigma+1), n, 1, t.pairKey)
	})
	return &t.pairs
}

// places returns postings that include every place where an indexed
// string holds the non-empty p, each standing for the place j bytes before
// its own offset; holds tells which do. A p of 1 or 2 bytes reads the pair
// table, whose postings are exactly p's places (j = 0): for 2 bytes one
// bucket, ascending by (offset, id), for 1 byte the byte's adjacent
// buckets. A longer p reads the triple-table bucket of its first 3 bytes
// (j = 0), ascending by (offset, id), or with anchor the bucket of
// whichever of its grams has the fewest postings (the lowest j on ties).
func (t *Tree) places(p string, anchor bool) (ps []posting, j int) {
	if len(p) <= 2 {
		pt := t.pairTable()
		for i := range len(p) {
			if t.rank[p[i]] == 0 {
				return nil, 0
			}
		}
		if len(p) == 2 {
			return pt.bucket(t.pairKey(p, 0)), 0
		}
		r := int(t.rank[p[0]])
		return pt.posts[pt.heads[(r-1)*(t.sigma+1)]:pt.heads[r*(t.sigma+1)]], 0
	}
	ps = t.trips.bucket(t.tripBucket(p, 0))
	for i := 1; anchor && i+3 <= len(p) && len(ps) > 0; i++ {
		if b := t.trips.bucket(t.tripBucket(p, i)); len(b) < len(ps) {
			ps, j = b, i
		}
	}
	return ps, j
}

// holds reports whether x, one of places(p)'s postings with shift j,
// stands for a place holding p.
func (t *Tree) holds(x posting, p string, j int) bool {
	if len(p) <= 2 {
		return true
	}
	off := int(x.off) - j
	return off >= 0 && strings.HasPrefix(t.strs[x.id][off:], p)
}

// near narrows postings ascending by offset to the offsets within k of o.
func near(ps []posting, o, k int) []posting {
	return ps[firstAt(ps, o-k):firstAt(ps, o+k+1)]
}

// firstAt returns the index of the first of ps, ascending by offset, at an
// offset of at least off.
func firstAt(ps []posting, off int) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); int(ps[m].off) < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
	t.sync()
	start := len(dst)
	for i := 0; i+minLen <= len(v); i++ {
		p := v[i : i+minLen]
		ps, j := t.places(p, true)
		for _, x := range ps {
			if t.holds(x, p, j) {
				dst = append(dst, x.id)
			}
		}
	}
	hits := dst[start:]
	slices.Sort(hits)
	return dst[:start+len(slices.Compact(hits))]
}

// AppendEditCandidates appends to dst, ascending and without duplicates,
// the ids of the indexed strings that may lie within edit distance k of v,
// and reports whether it could filter v at all. It is a q-gram count filter
// with a position bound: v is cut into p = k+3 disjoint pieces, and a
// string is kept when at least 2 distinct kept pieces occur in it at an
// offset within k of their offset in v. One piece is skipped: the widest,
// ties to the lowest index. A piece's width is the posting count of the
// window it is looked up in, the postings within k of its offset in its
// bucket: for a 2-byte piece, the places holding it; for a longer one, the
// places whose 3 bytes hash to the bucket of the piece's first 3, so grams
// sharing that bucket count too. Measuring a width costs two binary
// searches, and the widest piece's window is never scanned. The result is
// an exact superset of the strings within distance k: each edit destroys at
// most one piece and shifts a surviving piece by at most one byte, so k
// edits leave at least p-k-1 = 2 kept pieces intact, each within k of its
// place. Unlike AppendCommon, a piece shared by many strings (a common
// prefix) is not by itself enough to make a candidate.
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
	t.sync()
	var stack [16][]posting // piece windows; heap only for k > 13
	wins := stack[:0]
	skip := 0
	for i := range p {
		o := i * len(v) / p
		ps, _ := t.places(v[o:(i+1)*len(v)/p], false)
		w := near(ps, o, k)
		wins = append(wins, w)
		if len(w) > len(wins[skip]) {
			skip = i
		}
	}
	start := len(dst)
	for i, w := range wins {
		if i == skip {
			continue
		}
		piece, from := v[i*len(v)/p:(i+1)*len(v)/p], len(dst)
		for _, x := range w {
			if t.holds(x, piece, 0) {
				dst = append(dst, x.id)
			}
		}
		// A piece can sit twice near its place in one string; count it once.
		if hits := dst[from:]; len(hits) > 1 {
			slices.Sort(hits)
			dst = dst[:from+len(slices.Compact(hits))]
		}
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
	t.sync()
	minLen = max(minLen, 1)
	start := len(dst)
	for i := 0; i+minLen <= len(v); i++ {
		p := v[i : i+minLen]
		ps, j := t.places(p, true)
		for _, x := range ps {
			if t.holds(x, p, j) {
				s := t.strs[x.id][int(x.off)-j+minLen:]
				lcs := minLen + commonPrefix(v[i+minLen:], s)
				dst = append(dst, Match{ID: int(x.id), LCS: lcs})
			}
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

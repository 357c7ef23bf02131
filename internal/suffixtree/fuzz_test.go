package suffixtree

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"repro/internal/similarity"
)

// unpack splits packed into strings, each a length byte followed by that
// many bytes (fewer at the end of input), so an indexed string can hold any
// byte, NUL included, and can be empty.
func unpack(packed string) []string {
	var out []string
	for len(packed) > 0 {
		n := min(int(packed[0]), len(packed)-1)
		out = append(out, packed[1:1+n])
		packed = packed[1+n:]
	}
	return out
}

// FuzzIndex checks the LCS queries against the brute-force LCS, the
// tables' places against a scan of the strings, and the edit-distance
// filter against its documented rule and a plain Levenshtein DP, on
// arbitrary byte strings. The first string is indexed twice, so every
// input with a string exercises duplicates under distinct ids; the same
// strings are also indexed by New over the first half, a query, and Add
// for the rest, whose rebuild on the next query must give the same answers.
func FuzzIndex(f *testing.F) {
	f.Add("\x06banana\x07bandana\x06banana\x00", "ana", 1, 8, 0)
	f.Add("\x06αβγ\x06βγδ\x00\x03abc", "\xce\xb2", 1, 3, 1)
	f.Add("\x04aaaa\x02aa", "aaaaa", 0, 2, 0)
	f.Add("\x03\x00\x00\x00\x01\x00\x02a\x00", "\x00\x00", 2, 4, 1)
	f.Add("\x0f😀😁日本語", "本語😁", 3, 1, 2)
	f.Add("", "x", 1, 1, 0)
	f.Add("\x02ab", "", -1, -1, 3)
	// Long shared prefixes, strings that differ only in trailing NULs, and
	// NUL-only strings.
	f.Add("\x0babcdefghijk\x0cabcdefghijxy", "cdefghijx", 4, 2, 1)
	f.Add("\x01a\x02a\x00\x03a\x00\x00", "a\x00", 1, 3, 0)
	f.Add("\x01\x00\x03\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00", 2, 3, 0)
	// The edit filter: strings at distance k with exactly 2 kept pieces
	// intact, or with every piece shifted by k; gen-shaped names sharing a
	// prefix; a piece repeated near its place; a k too large to filter; k
	// past the stack's 16 windows.
	f.Add("\x0caaabbbcccdxd\x0dzaaabbbcccddd\x03aaa\x03aaa", "aaabbbcccddd", 1, 2, 1)
	f.Add("\x0dnm-abcdefghij\x0dnm-abxdefghij\x0dnm-qrstuvwxyz\x0cnm-abcdfghij", "nm-abcdefghij", 2, 4, 2)
	f.Add("\x0aabababab\x0cabababababab", "abababababab", 1, 4, 1)
	f.Add("\x06banana", "banana", 1, 1, 5)
	f.Add("\x28aaaaaaaaaabbbbbbbbbbccccccccccdddddddddd", "aaaaaaaaaabbbbbbbbbbcccccccccxdddddddddd", 3, 2, 15)
	f.Add("\x02ab", "abababab", 1, 1, -1)
	// Gen's 15-byte names, their shared 3-byte prefix nm- the widest piece:
	// one at distance 2, one sharing only the prefix, one typo'd into the
	// prefix itself.
	f.Add("\x0fnm-qwertyuiopas\x0fnm-qwertyuxopzs\x0fnm-zzzzzzzzzzzz\x0fnx-qwertyuiopas", "nm-qwertyuiopas", 5, 32, 2)
	// 2-byte pieces (len(v)/(k+3) = 2) and 1- and 2-byte common pieces.
	f.Add("\x0aabcdefghij\x0aabcdefghiz\x0bxabcdefghij", "abcdefghij", 2, 4, 2)
	f.Add("\x03abc\x02ca\x01b", "cab", 1, 8, 0)
	// A string's last byte as a piece, and grams at a string's end.
	f.Add("\x04wxyz\x03xyz\x01z\x02yz", "z", 1, 8, 0)
	f.Add("\x06abcxyz\x06xyzabc", "xyz", 3, 8, 0)
	// Strings beyond the first half come in by Add after a query.
	f.Add("\x05alpha\x05bravo\x05charl\x05delta\x05alpho", "alpha", 2, 3, 1)
	// Two pieces tie for the widest window, and which one is skipped
	// decides the list: ties go to the lowest index.
	f.Add("\x06xxyyQQ\x06xxQQzz\x06QQyyzz", "xxyyzz", 2, 4, 0)
	f.Fuzz(func(t *testing.T, packed, v string, minLen, l, k int) {
		if len(packed) > 1024 || len(v) > 64 || k > 32 {
			t.Skip()
		}
		strs := unpack(packed)
		if len(strs) > 0 {
			strs = append(strs, strs[0])
		}
		added := New(strs[:len(strs)/2]...)
		added.StringsWithCommonSubstring(v, 1)
		for _, s := range strs[len(strs)/2:] {
			added.Add(s)
		}
		rank, common := bruteForce(strs, v, minLen)
		top := rank
		if l <= 0 {
			top = nil
		} else if len(top) > l {
			top = top[:l]
		}
		for _, tr := range []*Tree{New(strs...), added} {
			if got := tr.TopL(v, len(strs), minLen); !slices.Equal(got, rank) {
				t.Fatalf("TopL(%q, all, %d) over %q = %v, want %v", v, minLen, strs, got, rank)
			}
			if got := tr.TopL(v, l, minLen); !slices.Equal(got, top) {
				t.Fatalf("TopL(%q, %d, %d) over %q = %v, want %v", v, l, minLen, strs, got, top)
			}
			checkPlaces(t, tr, strs, v, k)
			checkEditCandidates(t, tr, strs, v, k)
			if minLen < 1 {
				if !panics(func() { tr.StringsWithCommonSubstring(v, minLen) }) {
					t.Fatalf("StringsWithCommonSubstring(%q, %d) did not panic", v, minLen)
				}
				continue
			}
			if got := tr.StringsWithCommonSubstring(v, minLen); !slices.Equal(got, common) {
				t.Fatalf("StringsWithCommonSubstring(%q, %d) over %q = %v, want %v", v, minLen, strs, got, common)
			}
		}
	})
}

// bruteForce answers both queries from the reference LCS alone: rank is
// TopL(v, len(strs), minLen) and common is StringsWithCommonSubstring(v,
// minLen) for minLen >= 1.
func bruteForce(strs []string, v string, minLen int) (rank []Match, common []int32) {
	for id, s := range strs {
		if lcs := similarity.LCSubstring(v, s); lcs >= max(minLen, 1) {
			rank = append(rank, Match{ID: id, LCS: lcs})
			common = append(common, int32(id))
		}
	}
	slices.SortStableFunc(rank, func(a, b Match) int { return b.LCS - a.LCS })
	return rank, common
}

// checkPlaces compares places, for every non-empty substring of v of up
// to 5 bytes and the pieces the edit filter cuts v into, with a scan of the
// strings. The postings that hold a probe must stand for exactly its
// places; a probe of 1 or 2 bytes gets no other postings, and one of 2 gets
// them ascending by (offset, id). A longer probe gets, ascending by
// (offset, id), every place whose 3 bytes share the triple-table bucket of
// the probe's first 3, or of the 3 at the lowest shift with the fewest
// postings when it asks for an anchor. For the filter's pieces, when it
// cuts any, it also checks the window near narrows them to, whose size is
// the piece's width.
func checkPlaces(t *testing.T, tr *Tree, strs []string, v string, k int) {
	var probes []string
	for i := range len(v) {
		for j := i + 1; j <= min(len(v), i+5); j++ {
			probes = append(probes, v[i:j])
		}
	}
	for _, pr := range probes {
		for _, anchor := range []bool{false, true} {
			ps, j := tr.places(pr, anchor)
			var got []posting
			for _, x := range ps {
				if tr.holds(x, pr, j) {
					got = append(got, posting{x.off - int32(j), x.id})
				}
			}
			slices.SortFunc(got, byPlace)
			if want := placesOf(strs, pr); !slices.Equal(got, want) {
				t.Fatalf("places(%q, %v) over %q holds %v, want %v", pr, anchor, strs, got, want)
			}
			if len(pr) <= 2 {
				if len(ps) != len(got) || len(pr) == 2 && !slices.IsSortedFunc(ps, byPlace) {
					t.Fatalf("places(%q) over %q = %v, want %v in (offset, id) order", pr, strs, ps, got)
				}
				continue
			}
			wantJ := 0
			for i := 1; anchor && i+3 <= len(pr); i++ {
				if len(bucketMates(tr, strs, pr[i:], 0, -1)) < len(bucketMates(tr, strs, pr[wantJ:], 0, -1)) {
					wantJ = i
				}
			}
			if want := bucketMates(tr, strs, pr[wantJ:], 0, -1); j != wantJ || !slices.Equal(ps, want) {
				t.Fatalf("places(%q, %v) over %q = %v, %d; want %v, %d", pr, anchor, strs, ps, j, want, wantJ)
			}
		}
	}
	p := k + 3
	if k < 0 || len(v)/p < 2 {
		return // the filter cuts no pieces
	}
	for i := range p {
		o := i * len(v) / p
		pr := v[o : (i+1)*len(v)/p]
		ps, _ := tr.places(pr, false)
		if got, want := near(ps, o, k), window(tr, strs, pr, o, k); !slices.Equal(got, want) {
			t.Fatalf("near(places(%q), %d, %d) over %q = %v, want %v", pr, o, k, strs, got, want)
		}
	}
}

func byPlace(a, b posting) int { return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(a.id, b.id)) }

// placesOf lists, ascending by (offset, id), the places of strs holding p.
func placesOf(strs []string, p string) []posting {
	var out []posting
	for id, s := range strs {
		for off := range len(s) {
			if strings.HasPrefix(s[off:], p) {
				out = append(out, posting{int32(off), int32(id)})
			}
		}
	}
	slices.SortFunc(out, byPlace)
	return out
}

// bucketMates lists, ascending by (offset, id), the places of strs within
// k of o (at any offset for a negative k) whose 3 bytes share the
// triple-table bucket of p's first 3.
func bucketMates(tr *Tree, strs []string, p string, o, k int) []posting {
	var out []posting
	b := tr.tripBucket(p, 0)
	for id, s := range strs {
		for off := range len(s) - 2 {
			if tr.tripBucket(s, off) == b && (k < 0 || -k <= off-o && off-o <= k) {
				out = append(out, posting{int32(off), int32(id)})
			}
		}
	}
	slices.SortFunc(out, byPlace)
	return out
}

// window lists what AppendEditCandidates looks the piece p at offset o up
// in: for 2 bytes, p's places within k of o; for more, p's bucket mates
// within k of o.
func window(tr *Tree, strs []string, p string, o, k int) []posting {
	if len(p) > 2 {
		return bucketMates(tr, strs, p, o, k)
	}
	var out []posting
	for _, x := range placesOf(strs, p) {
		if d := int(x.off) - o; -k <= d && d <= k {
			out = append(out, x)
		}
	}
	return out
}

// editReference answers AppendEditCandidates(nil, v, k) over tr's strs by
// brute force from its documented rule: cut v into k+3 pieces, skip the
// widest (the one whose window holds the most postings; ties to the lowest
// index), and keep the strings that hold at least 2 of the other pieces
// within k of their offset. Only a window's width reads tr, for its hash.
func editReference(tr *Tree, strs []string, v string, k int) ([]int32, bool) {
	p := k + 3
	if len(v)/p < 2 {
		return nil, false
	}
	skip, widest := 0, -1
	for i := range p {
		o := i * len(v) / p
		if w := len(window(tr, strs, v[o:(i+1)*len(v)/p], o, k)); w > widest {
			skip, widest = i, w
		}
	}
	var out []int32
	for id, s := range strs {
		kept := 0
		for i := range p {
			o, piece := i*len(v)/p, v[i*len(v)/p:(i+1)*len(v)/p]
			if i == skip {
				continue
			}
			for off := max(0, o-k); off <= o+k && off < len(s); off++ {
				if strings.HasPrefix(s[off:], piece) {
					kept++
					break
				}
			}
		}
		if kept >= 2 {
			out = append(out, int32(id))
		}
	}
	return out, true
}

// checkEditCandidates checks AppendEditCandidates(dst, v, k): it panics for
// a negative k, leaves dst alone when v is too short to filter, and
// otherwise appends exactly editReference's ids, which include every string
// within edit distance k of v.
func checkEditCandidates(t *testing.T, tr *Tree, strs []string, v string, k int) {
	if k < 0 {
		if !panics(func() { tr.AppendEditCandidates(nil, v, k) }) {
			t.Fatalf("AppendEditCandidates(%q, %d) did not panic", v, k)
		}
		return
	}
	dst := []int32{-1}
	got, ok := tr.AppendEditCandidates(dst, v, k)
	want, wantOK := editReference(tr, strs, v, k)
	if ok != wantOK {
		t.Fatalf("AppendEditCandidates(%q, %d) ok = %v, want %v", v, k, ok, wantOK)
	}
	if len(got) == 0 || got[0] != -1 || (!ok && len(got) != 1) {
		t.Fatalf("AppendEditCandidates(%q, %d) = %v, %v: dst prefix lost or written when not ok", v, k, got, ok)
	}
	if !ok {
		return
	}
	if ids := got[1:]; !slices.Equal(ids, want) {
		t.Fatalf("AppendEditCandidates(%q, %d) over %q = %v, want %v", v, k, strs, ids, want)
	}
	for id, s := range strs {
		if levenshtein(v, s) <= k && !slices.Contains(want, int32(id)) {
			t.Fatalf("AppendEditCandidates(%q, %d) over %q = %v misses %d (%q)", v, k, strs, want, id, s)
		}
	}
}

// levenshtein is the plain two-row edit distance over bytes, kept apart
// from the similarity package so the filter is checked against code it
// does not share.
func levenshtein(a, b string) int {
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			cur[j] = min(sub, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func panics(fn func()) (ok bool) {
	defer func() { ok = recover() != nil }()
	fn()
	return false
}

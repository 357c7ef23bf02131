package suffixtree

import (
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

// FuzzIndex checks the LCS queries against the brute-force LCS, span
// against a scan of the sorted array, and the edit-distance filter against
// a plain Levenshtein DP, on arbitrary byte strings. The first string is
// indexed twice, so every input with a string exercises duplicates under
// distinct ids; the same strings are also indexed through Add, whose lazy
// sort must give the same answers.
func FuzzIndex(f *testing.F) {
	f.Add("\x06banana\x07bandana\x06banana\x00", "ana", 1, 8, 0)
	f.Add("\x06αβγ\x06βγδ\x00\x03abc", "\xce\xb2", 1, 3, 1)
	f.Add("\x04aaaa\x02aa", "aaaaa", 0, 2, 0)
	f.Add("\x03\x00\x00\x00\x01\x00\x02a\x00", "\x00\x00", 2, 4, 1)
	f.Add("\x0f😀😁日本語", "本語😁", 3, 1, 2)
	f.Add("", "x", 1, 1, 0)
	f.Add("\x02ab", "", -1, -1, 3)
	// 8-byte keys tie: a shared 10-byte prefix, strings that differ only
	// in trailing NULs (the key's padding byte), and NUL-only strings.
	f.Add("\x0babcdefghijk\x0cabcdefghijxy", "cdefghijx", 4, 2, 1)
	f.Add("\x01a\x02a\x00\x03a\x00\x00", "a\x00", 1, 3, 0)
	f.Add("\x01\x00\x03\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00", 2, 3, 0)
	// The edit filter: strings at distance k with exactly 2 kept pieces
	// intact, or with every piece shifted by k; gen-shaped names sharing a
	// prefix; a piece repeated near its place; a k too large to filter; k
	// past the stack's 16 spans.
	f.Add("\x0caaabbbcccdxd\x0dzaaabbbcccddd\x03aaa\x03aaa", "aaabbbcccddd", 1, 2, 1)
	f.Add("\x0dnm-abcdefghij\x0dnm-abxdefghij\x0dnm-qrstuvwxyz\x0cnm-abcdfghij", "nm-abcdefghij", 2, 4, 2)
	f.Add("\x0aabababab\x0cabababababab", "abababababab", 1, 4, 1)
	f.Add("\x06banana", "banana", 1, 1, 5)
	f.Add("\x28aaaaaaaaaabbbbbbbbbbccccccccccdddddddddd", "aaaaaaaaaabbbbbbbbbbcccccccccxdddddddddd", 3, 2, 15)
	f.Add("\x02ab", "abababab", 1, 1, -1)
	f.Fuzz(func(t *testing.T, packed, v string, minLen, l, k int) {
		if len(packed) > 1024 || len(v) > 64 || k > 32 {
			t.Skip()
		}
		strs := unpack(packed)
		if len(strs) > 0 {
			strs = append(strs, strs[0])
		}
		added := New()
		for _, s := range strs {
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
			checkSpans(t, tr, v, k)
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

// checkSpans compares span, for v, every prefix of v and the pieces the
// edit filter cuts v into, with a scan of the sorted array: the suffixes
// below p, then the run of suffixes starting with p.
func checkSpans(t *testing.T, tr *Tree, v string, k int) {
	probes := []string{v}
	for i := range len(v) {
		probes = append(probes, v[:i])
	}
	if p := k + 3; p > 0 {
		for i := range p {
			probes = append(probes, v[i*len(v)/p:(i+1)*len(v)/p])
		}
	}
	for _, p := range probes {
		lo, hi := tr.span(p)
		wantLo, wantHi := 0, 0
		for _, x := range tr.sa {
			switch s := tr.suffix(x); {
			case strings.HasPrefix(s, p):
				wantHi++
			case s < p:
				wantLo++
			}
		}
		wantHi += wantLo
		if lo != wantLo || hi != wantHi {
			t.Fatalf("span(%q) over %q = [%d, %d), want [%d, %d)", p, tr.strs, lo, hi, wantLo, wantHi)
		}
	}
}

// checkEditCandidates checks AppendEditCandidates(dst, v, k): it panics for
// a negative k, leaves dst alone when v is too short to filter, and
// otherwise appends ascending, distinct ids that include every string
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
	if wantOK := len(v)/(k+3) >= 2; ok != wantOK {
		t.Fatalf("AppendEditCandidates(%q, %d) ok = %v, want %v", v, k, ok, wantOK)
	}
	if len(got) == 0 || got[0] != -1 || (!ok && len(got) != 1) {
		t.Fatalf("AppendEditCandidates(%q, %d) = %v, %v: dst prefix lost or written when not ok", v, k, got, ok)
	}
	if !ok {
		return
	}
	ids := got[1:]
	for i, id := range ids {
		if id < 0 || int(id) >= len(strs) || (i > 0 && ids[i-1] >= id) {
			t.Fatalf("AppendEditCandidates(%q, %d) over %q = %v: not ascending distinct ids", v, k, strs, ids)
		}
	}
	for id, s := range strs {
		if levenshtein(v, s) <= k && !slices.Contains(ids, int32(id)) {
			t.Fatalf("AppendEditCandidates(%q, %d) over %q = %v misses %d (%q)", v, k, strs, ids, id, s)
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

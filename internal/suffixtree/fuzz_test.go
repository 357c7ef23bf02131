package suffixtree

import (
	"slices"
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

// FuzzIndex checks both queries against the brute-force LCS on arbitrary
// byte strings. The first string is indexed twice, so every input with a
// string exercises duplicates under distinct ids; the same strings are also
// indexed through Add, whose lazy sort must give the same answers.
func FuzzIndex(f *testing.F) {
	f.Add("\x06banana\x07bandana\x06banana\x00", "ana", 1, 8)
	f.Add("\x06αβγ\x06βγδ\x00\x03abc", "\xce\xb2", 1, 3)
	f.Add("\x04aaaa\x02aa", "aaaaa", 0, 2)
	f.Add("\x03\x00\x00\x00\x01\x00\x02a\x00", "\x00\x00", 2, 4)
	f.Add("\x0f😀😁日本語", "本語😁", 3, 1)
	f.Add("", "x", 1, 1)
	f.Add("\x02ab", "", -1, -1)
	// 8-byte keys tie: a shared 10-byte prefix, strings that differ only
	// in trailing NULs (the key's padding byte), and NUL-only strings.
	f.Add("\x0babcdefghijk\x0cabcdefghijxy", "cdefghijx", 4, 2)
	f.Add("\x01a\x02a\x00\x03a\x00\x00", "a\x00", 1, 3)
	f.Add("\x01\x00\x03\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00", 2, 3)
	f.Fuzz(func(t *testing.T, packed, v string, minLen, l int) {
		if len(packed) > 1024 || len(v) > 64 {
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

func panics(fn func()) (ok bool) {
	defer func() { ok = recover() != nil }()
	fn()
	return false
}

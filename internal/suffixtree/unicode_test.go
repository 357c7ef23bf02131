package suffixtree

import (
	"reflect"
	"testing"

	"repro/internal/similarity"
)

// TestTreeUnicodeAndEmpty pins the byte-level behavior of the generalized
// suffix array on multi-byte and empty-string inputs: indexing, substring
// containment and TopL's LCS ranking all operate on bytes, so greek letters
// sharing the UTF-8 lead byte 0xCE produce non-zero common substrings.
func TestTreeUnicodeAndEmpty(t *testing.T) {
	tr := New()
	ids := map[string]int{}
	for _, s := range []string{"αβγ", "βγδ", "abc", ""} {
		ids[s] = tr.Add(s)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}

	containsTests := []struct {
		sub  string
		want bool
	}{
		{"β", true},
		{"γδ", true},
		{"αβγ", true},
		{"abc", true},
		{"x", false},
		{"δα", false},
		{"\xce", true}, // a bare UTF-8 lead byte is a substring of every greek word
	}
	for _, tc := range containsTests {
		if got := contains(tr, tc.sub); got != tc.want {
			t.Errorf("contains(%q) = %v, want %v", tc.sub, got, tc.want)
		}
	}

	stringsTests := []struct {
		sub  string
		want []int
	}{
		{"γ", []int{ids["αβγ"], ids["βγδ"]}},
		{"δ", []int{ids["βγδ"]}},
		{"b", []int{ids["abc"]}},
		{"\xce", []int{ids["αβγ"], ids["βγδ"]}},
		{"zz", nil},
	}
	for _, tc := range stringsTests {
		if got := containing(tr, tc.sub); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("containing(%q) = %v, want %v", tc.sub, got, tc.want)
		}
	}

	topLTests := []struct {
		name   string
		query  string
		l      int
		minLen int
		want   []Match
	}{
		{"full multibyte query", "αβ", 8, 1, []Match{
			{ID: ids["αβγ"], LCS: 4}, // the whole query
			{ID: ids["βγδ"], LCS: 2}, // the bytes of β
		}},
		{"minLen prunes short overlaps", "αβ", 8, 3, []Match{
			{ID: ids["αβγ"], LCS: 4},
		}},
		{"l truncates the ranking", "αβ", 1, 1, []Match{
			{ID: ids["αβγ"], LCS: 4},
		}},
		{"ascii query misses greek", "bc", 8, 1, []Match{
			{ID: ids["abc"], LCS: 2},
		}},
		{"bare lead byte", "\xce", 8, 1, []Match{
			{ID: ids["αβγ"], LCS: 1},
			{ID: ids["βγδ"], LCS: 1},
		}},
		{"empty query", "", 8, 1, nil},
		{"zero l", "αβ", 0, 1, nil},
	}
	for _, tc := range topLTests {
		if got := tr.TopL(tc.query, tc.l, tc.minLen); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: TopL(%q, %d, %d) = %v, want %v", tc.name, tc.query, tc.l, tc.minLen, got, tc.want)
		}
	}

	// An empty indexed string never appears as a candidate.
	for _, q := range []string{"αβγ", "abc", "z"} {
		for _, m := range tr.TopL(q, 8, 1) {
			if m.ID == ids[""] {
				t.Errorf("TopL(%q) returned the empty indexed string", q)
			}
		}
		for _, id := range tr.StringsWithCommonSubstring(q, 1) {
			if int(id) == ids[""] {
				t.Errorf("StringsWithCommonSubstring(%q) returned the empty indexed string", q)
			}
		}
	}
}

// TestTopLMatchesLCSubstringOnUnicode cross-checks TopL's reported lengths
// against the reference LCS implementation over unicode-heavy strings.
func TestTopLMatchesLCSubstringOnUnicode(t *testing.T) {
	indexed := []string{"naïve", "naive", "café", "caffè", "日本語", "語日本", "😀😁"}
	tr := New()
	for _, s := range indexed {
		tr.Add(s)
	}
	queries := []string{"naïve", "café", "日本", "😀", "ïv", ""}
	for _, q := range queries {
		got := make(map[int]int)
		for _, m := range tr.TopL(q, len(indexed), 1) {
			got[m.ID] = m.LCS
		}
		for id, s := range indexed {
			want := similarity.LCSubstring(q, s)
			if got[id] != want {
				t.Errorf("TopL(%q): string %q has LCS %d, want %d", q, s, got[id], want)
			}
		}
	}
}

package suffixtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/similarity"
)

// containing returns the ids of the indexed strings that contain the
// non-empty sub: a common substring as long as sub can only be sub itself.
func containing(tr *Tree, sub string) []int {
	var out []int
	for _, id := range tr.StringsWithCommonSubstring(sub, len(sub)) {
		out = append(out, int(id))
	}
	return out
}

// contains reports whether the non-empty sub is a substring of some indexed
// string.
func contains(tr *Tree, sub string) bool { return len(containing(tr, sub)) > 0 }

func TestContains(t *testing.T) {
	tr := New()
	tr.Add("banana")
	tr.Add("bandana")
	for _, sub := range []string{"banana", "anana", "nan", "a", "bandana", "ndan"} {
		if !contains(tr, sub) {
			t.Errorf("contains(%q) = false", sub)
		}
		if got := tr.TopL(sub, 1, len(sub)); len(got) != 1 || got[0].LCS != len(sub) {
			t.Errorf("TopL(%q, 1, %d) = %v, want one full-length match", sub, len(sub), got)
		}
	}
	for _, sub := range []string{"bananas", "xyz", "bb", "aaa"} {
		if contains(tr, sub) {
			t.Errorf("contains(%q) = true", sub)
		}
		if got := tr.TopL(sub, 1, len(sub)); got != nil {
			t.Errorf("TopL(%q, 1, %d) = %v, want nil", sub, len(sub), got)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	for _, tr := range []*Tree{New(), New("")} {
		if got := tr.StringsWithCommonSubstring("x", 1); got != nil {
			t.Errorf("StringsWithCommonSubstring = %v", got)
		}
		if got := tr.TopL("abc", 3, 1); got != nil {
			t.Errorf("TopL = %v", got)
		}
	}
}

func TestStringsContaining(t *testing.T) {
	tr := New()
	tr.Add("banana")  // 0
	tr.Add("bandana") // 1
	tr.Add("cabana")  // 2
	cases := []struct {
		sub  string
		want []int
	}{
		{"ana", []int{0, 1, 2}},
		{"band", []int{1}},
		{"nan", []int{0}},
		{"cab", []int{2}},
		{"zzz", nil},
	}
	for _, c := range cases {
		got := containing(tr, c.sub)
		if !equalInts(got, c.want) {
			t.Errorf("containing(%q) = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestStringAccessor(t *testing.T) {
	tr := New()
	id := tr.Add("hello")
	if tr.String(id) != "hello" || tr.Len() != 1 {
		t.Error("String/Len broken")
	}
}

func TestTopLRanksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := "abcd"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return b.String()
	}
	for trial := 0; trial < 30; trial++ {
		tr := New()
		n := 5 + rng.Intn(15)
		seen := make(map[string]bool)
		for i := 0; i < n; i++ {
			s := randStr(3 + rng.Intn(10))
			if seen[s] {
				continue
			}
			seen[s] = true
			tr.Add(s)
		}
		v := randStr(3 + rng.Intn(10))
		got := tr.TopL(v, tr.Len(), 1)
		// Brute force: exact LCS per string.
		for _, m := range got {
			want := similarity.LCSubstring(v, tr.String(m.ID))
			if m.LCS != want {
				t.Fatalf("TopL LCS for %q vs %q = %d, want %d", v, tr.String(m.ID), m.LCS, want)
			}
		}
		// Every string with LCS >= 1 must be reported.
		for id := 0; id < tr.Len(); id++ {
			want := similarity.LCSubstring(v, tr.String(id))
			found := false
			for _, m := range got {
				if m.ID == id {
					found = true
					break
				}
			}
			if want >= 1 && !found {
				t.Fatalf("string %q with LCS %d missing from TopL(%q)", tr.String(id), want, v)
			}
		}
		// Ranking must be by LCS descending.
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].LCS != got[j].LCS {
				return got[i].LCS > got[j].LCS
			}
			return got[i].ID < got[j].ID
		}) {
			t.Fatal("TopL not sorted")
		}
	}
}

func TestTopLMinLenFilters(t *testing.T) {
	tr := New()
	tr.Add("abcdef") // LCS with query = 6
	tr.Add("xbzqzz") // LCS with query = 1 ("b")
	got := tr.TopL("abcdef", 10, 3)
	if len(got) != 1 || got[0].ID != 0 || got[0].LCS != 6 {
		t.Errorf("TopL = %v", got)
	}
}

func TestTopLLimit(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Add("common" + strings.Repeat("x", i+1))
	}
	got := tr.TopL("common", 3, 2)
	if len(got) != 3 {
		t.Errorf("TopL limit = %d results", len(got))
	}
	if got := tr.TopL("common", 0, 2); got != nil {
		t.Errorf("TopL(l=0) = %v", got)
	}
}

func TestTopLBlockingFindsEditNeighbors(t *testing.T) {
	// Strings within edit distance K of the query must appear among the
	// candidates when minLen is set from the blocking bound.
	tr := New()
	master := []string{"3256778", "3887644", "9284773", "EH8 9LE", "WC1H 9SE"}
	for _, s := range master {
		tr.Add(s)
	}
	query := "3887834" // edit distance 2 from 3887644
	k := 2
	minLen := len(query) / (k + 1)
	got := tr.TopL(query, 3, minLen)
	found := false
	for _, m := range got {
		if tr.String(m.ID) == "3887644" {
			found = true
		}
	}
	if !found {
		t.Errorf("edit-neighbor not in candidates: %v", got)
	}
}

func TestRepeatedCharacters(t *testing.T) {
	tr := New()
	tr.Add("aaaa")
	tr.Add("aa")
	if !contains(tr, "aaa") || contains(tr, "aaaaa") {
		t.Error("repeated-char containment wrong")
	}
	ids := containing(tr, "aa")
	if !equalInts(ids, []int{0, 1}) {
		t.Errorf("containing(aa) = %v", ids)
	}
	// Every suffix of "aaaa" starts a hit for the query; each id must still
	// appear once, with its longest run.
	want := []Match{{ID: 0, LCS: 4}, {ID: 1, LCS: 2}}
	if got := tr.TopL("aaaaa", 8, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("TopL(aaaaa) = %v, want %v", got, want)
	}
}

// TestAddAfterQuery: Add only appends, and the next query indexes the new
// string along with the old ones.
func TestAddAfterQuery(t *testing.T) {
	tr := New("banana")
	if got := tr.StringsWithCommonSubstring("band", 4); got != nil {
		t.Fatalf("before Add: %v", got)
	}
	if id := tr.Add("bandana"); id != 1 {
		t.Fatalf("Add id = %d, want 1", id)
	}
	if got := tr.StringsWithCommonSubstring("band", 4); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("after Add: %v, want [1]", got)
	}
	if got := tr.TopL("nana", 8, 2); !reflect.DeepEqual(got, []Match{{ID: 0, LCS: 4}, {ID: 1, LCS: 3}}) {
		t.Errorf("TopL after Add = %v", got)
	}
}

// TestAppendKeepsPrefix: the append forms leave dst's existing elements
// alone and rank or sort only what they add.
func TestAppendKeepsPrefix(t *testing.T) {
	tr := New("banana", "bandana", "cabana")
	top := tr.AppendTopL([]Match{{ID: 9, LCS: 0}}, "ana", 2, 1)
	if want := []Match{{ID: 9, LCS: 0}, {ID: 0, LCS: 3}, {ID: 1, LCS: 3}}; !reflect.DeepEqual(top, want) {
		t.Errorf("AppendTopL = %v, want %v", top, want)
	}
	ids := tr.AppendCommon([]int32{7}, "cab", 3)
	if want := []int32{7, 2}; !reflect.DeepEqual(ids, want) {
		t.Errorf("AppendCommon = %v, want %v", ids, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStringsWithCommonSubstringAgainstBruteForce pins the exact enumeration
// the Checker's blocked certification relies on: for random trees and
// queries, the result must be precisely the ids whose string shares a
// substring of length >= minLen with the query — no ranking, no truncation —
// in ascending id order.
func TestStringsWithCommonSubstringAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alpha := "abc"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return b.String()
	}
	for trial := 0; trial < 50; trial++ {
		tr := New()
		seen := make(map[string]bool)
		for i, n := 0, 4+rng.Intn(12); i < n; i++ {
			s := randStr(2 + rng.Intn(9))
			if seen[s] {
				continue
			}
			seen[s] = true
			tr.Add(s)
		}
		v := randStr(2 + rng.Intn(9))
		for minLen := 1; minLen <= 4; minLen++ {
			got := tr.StringsWithCommonSubstring(v, minLen)
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("ids not ascending: %v", got)
			}
			gotSet := make(map[int32]bool, len(got))
			for _, id := range got {
				gotSet[id] = true
			}
			for id := 0; id < tr.Len(); id++ {
				want := similarity.LCSubstring(v, tr.String(id)) >= minLen
				if want != gotSet[int32(id)] {
					t.Fatalf("query %q minLen %d: string %q (id %d) in result = %v, want %v",
						v, minLen, tr.String(id), id, gotSet[int32(id)], want)
				}
			}
		}
	}
}

// TestStringsWithCommonSubstringRejectsVacuousBound: a minLen below 1 would
// silently drop strings within edit distance of the query that share no
// substring at all — the enumeration must refuse instead of being wrong.
func TestStringsWithCommonSubstringRejectsVacuousBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("minLen 0 did not panic")
		}
	}()
	tr := New()
	tr.Add("abc")
	tr.StringsWithCommonSubstring("ab", 0)
}

// TestIndexLayout pins the built tables: each place of each string with 3
// bytes to go is one posting of the triple table, in the bucket of its
// gram's hash, and each place is one posting of the pair table, in the
// bucket of its pair key; both tables' buckets ascend by (offset, id). That
// holds whether the strings came through New or through Add and a query.
// The strings draw on NUL, 0x01 and 0xff around two letters and often
// repeat each other or share leading bytes, so grams repeat within and
// across strings, and small trees make buckets that grams share.
func TestIndexLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	alpha := "\x00\x01ab\xff"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	for trial := 0; trial < 300; trial++ {
		var strs []string
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			s := randStr(rng.Intn(21))
			if len(strs) > 0 {
				old := strs[rng.Intn(len(strs))]
				switch r := rng.Intn(4); {
				case r == 0:
					s = old
				case r == 1 && len(old) >= 3:
					p := 3 + rng.Intn(len(old)-2)
					s = old[:p] + randStr(rng.Intn(21-p))
				}
			}
			strs = append(strs, s)
		}
		if err := layoutErr(New(strs...), strs); err != "" {
			t.Fatalf("New(%q): %s", strs, err)
		}
		k := rng.Intn(len(strs) + 1)
		added := New(strs[:k]...)
		added.StringsWithCommonSubstring("a", 1)
		for _, s := range strs[k:] {
			added.Add(s)
		}
		added.StringsWithCommonSubstring("abc", 3)
		if err := layoutErr(added, strs); err != "" {
			t.Fatalf("New(%q) then Add(%q): %s", strs[:k], strs[k:], err)
		}
	}
}

// layoutErr describes the first way tr's tables depart from the layout
// TestIndexLayout pins for strs, or returns "".
func layoutErr(tr *Tree, strs []string) string {
	check := func(name string, tb *table, q int, key func(s string, off int) int) string {
		want := map[posting]bool{}
		for id, s := range strs {
			for off := range len(s) - q + 1 {
				want[posting{int32(off), int32(id)}] = true
			}
		}
		if len(tb.posts) != len(want) {
			return fmt.Sprintf("%s table holds %d postings, want %d", name, len(tb.posts), len(want))
		}
		for b := range len(tb.heads) - 1 {
			run := tb.bucket(b)
			for i, x := range run {
				if !want[x] {
					return fmt.Sprintf("%s bucket %d holds %+v twice or out of range", name, b, x)
				}
				delete(want, x)
				if kb := key(strs[x.id], int(x.off)); kb != b {
					return fmt.Sprintf("%s posting %+v in bucket %d, want %d", name, x, b, kb)
				}
				if i > 0 && byPlace(run[i-1], x) >= 0 {
					return fmt.Sprintf("%s bucket %d: %+v before %+v", name, b, run[i-1], x)
				}
			}
		}
		return ""
	}
	if err := check("triple", &tr.trips, 3, tr.tripBucket); err != "" {
		return err
	}
	return check("pair", tr.pairTable(), 1, tr.pairKey)
}

// TestConcurrentQueries runs every query from many goroutines on one index
// built by New, each against the answers one goroutine got alone on
// another. Some queries read the pair table, which the index builds on
// the first of them, so under -race the test shows that queries build it
// once and otherwise only read.
func TestConcurrentQueries(t *testing.T) {
	names, queries := genNames(2000, 500)
	queries = queries[:200]
	type answer struct {
		edit, common, pair, single []int32
		ok                         bool
		top                        []Match
	}
	ask := func(tr *Tree, v string) answer {
		var a answer
		a.edit, a.ok = tr.AppendEditCandidates(nil, v, 2)
		a.common = tr.AppendCommon(nil, v, max(1, len(v)/3))
		a.pair = tr.AppendCommon(nil, v[3:7], 2)
		a.single = tr.AppendCommon(nil, v[3:5], 1)
		a.top = tr.AppendTopL(nil, v, engineTopL, len(v)/3)
		return a
	}
	alone, shared := New(names...), New(names...)
	want := make([]answer, len(queries))
	for i, v := range queries {
		want[i] = ask(alone, v)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() { //det:ok poolonly the test races queries on one index on purpose; no engine state involved
			defer wg.Done()
			for i := range queries {
				i := (i + g*len(queries)/8) % len(queries)
				if got := ask(shared, queries[i]); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d, query %q: %+v, want %+v", g, queries[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

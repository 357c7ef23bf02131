package similarity

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"Bob", "Robert", 4},
		{"3887834", "3887644", 2},
		{"Edi", "Ldn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 60 {
			a = a[:60]
		}
		if len(b) > 60 {
			b = b[:60]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		if len(c) > 30 {
			c = c[:30]
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithinAgreesWithLevenshtein(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alpha := "abcde"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return b.String()
	}
	check := func(a, b string, k int) {
		t.Helper()
		d := Levenshtein(a, b)
		if got := Within(a, b, k); got != (d <= k) {
			t.Fatalf("Within(%q,%q,%d) = %v, Levenshtein = %d", a, b, k, got, d)
		}
		// Within's kernel returns the exact distance whenever it is at most k.
		if got, ok := LevenshteinWithin(a, b, k); ok != (d <= k) || ok && got != d {
			t.Fatalf("LevenshteinWithin(%q,%q,%d) = %d, %v, Levenshtein = %d", a, b, k, got, ok, d)
		}
	}
	for i := 0; i < 500; i++ {
		a := randStr(rng.Intn(12))
		b := randStr(rng.Intn(12))
		for k := 0; k <= 6; k++ {
			check(a, b, k)
		}
	}
	// Bands too wide for the stack rows (k >= 17 needs 2(2k+1) > 34 cells).
	for i := 0; i < 200; i++ {
		a := randStr(rng.Intn(45))
		b := randStr(rng.Intn(45))
		for _, k := range []int{8, 9, 17, 18, 25} {
			check(a, b, k)
		}
	}
	for _, c := range []struct {
		a, b string
		k    int
	}{
		// Early divergence: a row's minimum passes k long before the end.
		{"xxxxxxabcdef", "yyyyyyabcdef", 2},
		{"xxxxxxabcdef", "yyyyyyabcdef", 6},
		{"abcdefghij", "zzzdefghij", 2},
		// k = 0 is plain equality.
		{"abc", "abc", 0},
		{"abc", "abd", 0},
		{"", "", 0},
		{"", "a", 0},
		// A length gap equal to k: only pure insertions stay within it.
		{"abc", "abcde", 2},
		{"abc", "xxabc", 2},
		{"abc", "axbxc", 2},
		{"abc", "xbcde", 2},
		{"", "abcde", 5},
		// k >= 17, heap-allocated rows.
		{strings.Repeat("ab", 20), strings.Repeat("ba", 20), 17},
		{strings.Repeat("a", 30), strings.Repeat("b", 30), 29},
		{strings.Repeat("a", 30), strings.Repeat("b", 30), 30},
		{strings.Repeat("abc", 10), strings.Repeat("abc", 10) + strings.Repeat("d", 17), 17},
	} {
		check(c.a, c.b, c.k)
	}
}

var withinSink bool

// BenchmarkWithin measures one MD verification at the generator's edit
// threshold (k = 2) on name-length strings, half of them within reach. It
// must report 0 allocs/op: the band rows live on the stack for k <= 8.
func BenchmarkWithin(b *testing.B) {
	pairs := [][2]string{
		{"Robert Brady", "Robert Bradly"},
		{"Robert Brady", "Roberta Brody"},
		{"Mary Smith", "Marie Smith"},
		{"Mary Smith", "Quentin Blake"},
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		p := pairs[i%len(pairs)]
		withinSink = Within(p[0], p[1], 2)
	}
}

func TestWithinNegativeK(t *testing.T) {
	if Within("a", "a", -1) {
		t.Error("Within with k<0 must be false")
	}
}

func TestJaroKnownValues(t *testing.T) {
	// Classical textbook values.
	if got := Jaro("MARTHA", "MARHTA"); !close(got, 0.944444, 1e-4) {
		t.Errorf("Jaro(MARTHA,MARHTA) = %g", got)
	}
	if got := Jaro("DIXON", "DICKSONX"); !close(got, 0.766667, 1e-4) {
		t.Errorf("Jaro(DIXON,DICKSONX) = %g", got)
	}
	if got := Jaro("", "x"); got != 0 {
		t.Errorf("Jaro empty = %g", got)
	}
	if got := Jaro("same", "same"); got != 1 {
		t.Errorf("Jaro same = %g", got)
	}
	if got := Jaro("ab", "xy"); got != 0 {
		t.Errorf("Jaro disjoint = %g", got)
	}
}

func TestJaroWinklerPrefixBoost(t *testing.T) {
	if got := JaroWinkler("MARTHA", "MARHTA"); !close(got, 0.961111, 1e-4) {
		t.Errorf("JaroWinkler = %g", got)
	}
	if JaroWinkler("prefix_abc", "prefix_xyz") <= Jaro("prefix_abc", "prefix_xyz") {
		t.Error("Winkler boost missing for shared prefix")
	}
}

func TestJaroRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		j := Jaro(a, b)
		jw := JaroWinkler(a, b)
		return j >= 0 && j <= 1 && jw >= j && jw <= 1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("abab", 2)
	if g["ab"] != 2 || g["ba"] != 1 || len(g) != 2 {
		t.Errorf("QGrams(abab,2) = %v", g)
	}
	if g := QGrams("a", 2); g["a"] != 1 {
		t.Errorf("short string grams = %v", g)
	}
	if g := QGrams("", 2); len(g) != 0 {
		t.Errorf("empty string grams = %v", g)
	}
}

func TestJaccard(t *testing.T) {
	if got := Jaccard("abc", "abc", 2); got != 1 {
		t.Errorf("identical = %g", got)
	}
	if got := Jaccard("abc", "xyz", 2); got != 0 {
		t.Errorf("disjoint = %g", got)
	}
	if got := Jaccard("", "", 2); got != 1 {
		t.Errorf("both empty = %g", got)
	}
}

func TestLCSubstring(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"abcdef", "zabcy", 3},
		{"same", "same", 4},
		{"xyabcz", "pqabcr", 3},
		{"a", "b", 0},
	}
	for _, c := range cases {
		if got := LCSubstring(c.a, c.b); got != c.want {
			t.Errorf("LCSubstring(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBlockingBound(t *testing.T) {
	// If edit distance <= K then LCSubstring >= floor(max(|a|,|b|)/(K+1)):
	// partition the longer string into K+1 segments; K edits leave at least
	// one untouched (the blocking bound of Section 5.2). Verify on random
	// data.
	rng := rand.New(rand.NewSource(7))
	alpha := "abcdef"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return b.String()
	}
	for i := 0; i < 300; i++ {
		a := randStr(4 + rng.Intn(12))
		b := randStr(4 + rng.Intn(12))
		k := Levenshtein(a, b)
		m := len(a)
		if len(b) > m {
			m = len(b)
		}
		if lcs := LCSubstring(a, b); lcs < m/(k+1) {
			t.Fatalf("bound violated: a=%q b=%q k=%d lcs=%d", a, b, k, lcs)
		}
	}
}

func TestPredicates(t *testing.T) {
	eq := Equal()
	if !eq.Exact || !eq.Match("x", "x") || eq.Match("x", "y") {
		t.Error("Equal predicate broken")
	}
	if eq.Match("", "") {
		t.Error("null must never match")
	}
	ed := EditWithin(2)
	if ed.Exact {
		t.Error("EditWithin must not be Exact")
	}
	if !ed.Match("Bob", "Rob") || ed.Match("Bob", "Robert") {
		t.Error("EditWithin(2) misbehaves")
	}
	jw := JaroWinklerAtLeast(0.85)
	if !jw.Match("Mark", "Marc") || jw.Match("Mark", "Quentin") {
		t.Error("JaroWinklerAtLeast misbehaves")
	}
	jc := JaccardAtLeast(2, 0.5)
	if !jc.Match("abcdef", "abcdef") || jc.Match("abcdef", "uvwxyz") {
		t.Error("JaccardAtLeast misbehaves")
	}
	if got := ed.String(); got != "edit<=2" {
		t.Errorf("name = %q", got)
	}
}

func close(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < eps
}

package lint

import (
	"strings"
	"testing"
)

// FuzzDetOkGrammar hammers the suppression-annotation parser with arbitrary
// comment text. The parser is the security boundary of the whole suite — a
// comment it misparses either silences a diagnostic for free or invents a
// suppression that never existed — so the contract is pinned exactly:
//
//   - it never panics;
//   - it accepts exactly the comments where "//det:ok" is followed by a
//     space, a tab, or nothing ("//det:okay ..." is prose, not a
//     suppression of an analyzer named "ay" — the bug this fuzzer was
//     written against);
//   - a rejected comment yields zero-value fields, so no downstream code
//     can act on a half-parsed annotation;
//   - an accepted comment splits into fields exactly like strings.Fields:
//     the analyzer is the first field (whitespace-free by construction),
//     the reason is the rest joined by single spaces.
func FuzzDetOkGrammar(f *testing.F) {
	for _, seed := range []string{
		"//det:ok sinkwrite verified by inspection",
		"//det:ok maporder",
		"//det:ok",
		"//det:ok ",
		"//det:ok\tmaporder tab-separated reason",
		"//det:ok  sinkwrite   extra   spacing  ",
		"//det:okay prose that merely starts the same way",
		"//det:okpoolonly no separator",
		"// det:ok spaced out, not a machine comment",
		"//nolint:all",
		"/* det:ok block */",
		"//det:ok panicfree reason with \"quotes\" and // slashes",
		"//det:ok floateq non-breaking space is not a separator",
		"//det:ok\vdetok vertical tab is not a separator",
		"//",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		analyzer, reason, ok := parseAnnotation(text)
		rest, hasPrefix := strings.CutPrefix(text, "//det:ok")
		wantOK := hasPrefix && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
		if ok != wantOK {
			t.Fatalf("parseAnnotation(%q) ok = %v, want %v", text, ok, wantOK)
		}
		if !ok {
			if analyzer != "" || reason != "" {
				t.Fatalf("parseAnnotation(%q) rejected but leaked fields %q, %q", text, analyzer, reason)
			}
			return
		}
		fields := strings.Fields(rest)
		wantAnalyzer, wantReason := "", ""
		if len(fields) > 0 {
			wantAnalyzer = fields[0]
		}
		if len(fields) > 1 {
			wantReason = strings.Join(fields[1:], " ")
		}
		if analyzer != wantAnalyzer || reason != wantReason {
			t.Fatalf("parseAnnotation(%q) = %q, %q; want %q, %q", text, analyzer, reason, wantAnalyzer, wantReason)
		}
		if strings.IndexFunc(analyzer, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' }) >= 0 {
			t.Fatalf("parseAnnotation(%q) produced analyzer %q containing whitespace", text, analyzer)
		}
	})
}

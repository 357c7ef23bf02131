// Package lint is a stdlib-only static-analysis framework that mechanizes
// the repo's determinism and concurrency invariants: the guarantees that the
// sequential and parallel engines produce Fixes and Reports byte-identical
// to each other and to the test-only rescan reference are encoded as
// analyzers that fail CI instead of relying on reviewer vigilance. The suite
// keeps only checks that a test does not already back: the cancellation
// and typed-error contracts are pinned at run time by internal/clean's
// fault suite instead (docs/determinism.md lists which test guards what).
//
// The framework deliberately does not depend on golang.org/x/tools: packages
// are parsed with go/parser and type-checked with go/types using the source
// importer, so `go run ./cmd/unilint ./...` works with nothing but the
// toolchain the repo already requires.
//
// Findings can be suppressed in the source with an annotation comment
//
//	//det:ok <analyzer> <reason>
//
// placed at the end of the offending line or alone on the line directly
// above it. The reason is mandatory: a suppression without one is itself a
// finding (see CheckSuppressions), so every silenced diagnostic carries a
// written justification next to the code it excuses.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //det:ok annotations.
	Name string
	// Doc is a one-line description printed by `unilint -list`.
	Doc string
	// AppliesTo reports whether the analyzer runs on the package with the
	// given import path. Nil means it runs on every package. The driver
	// consults it; fixture tests bypass it and run the analyzer directly.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Finding is one diagnostic produced by an analyzer, already past the
// suppression filter.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding as "file:line:col: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	sup      *suppressions
	findings *[]Finding
}

// Reportf records a finding at pos unless a //det:ok annotation for this
// analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.sup.covers(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the type checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// detPrefix introduces a suppression annotation. The annotation grammar is
//
//	//det:ok <analyzer> <reason>
//
// with no space between "//" and "det:ok" (a gofmt-style machine comment,
// like //go:build or //nolint).
const detPrefix = "det:ok"

// suppression is one parsed //det:ok annotation.
type suppression struct {
	pos      token.Position
	analyzer string // "" when the annotation names no analyzer
	reason   string // "" when no justification was written
	used     bool   // set by covers when the annotation suppressed a finding
}

// suppressions indexes the //det:ok annotations of one package by file and
// line. An annotation on line L covers findings on L (trailing form) and on
// L+1 (line-above form).
type suppressions struct {
	byLine map[string]map[int][]*suppression
	all    []*suppression
}

// parseAnnotation splits a comment's text into its //det:ok fields. ok is
// false when the comment is not a det:ok annotation at all: the prefix must
// be followed by a space, a tab, or the end of the comment, so //det:okay
// is prose, not a suppression of an analyzer named "ay". When ok, analyzer
// and reason are the first whitespace-separated field and the rest.
func parseAnnotation(text string) (analyzer, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//"+detPrefix)
	if !ok {
		return "", "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) > 0 {
		analyzer = fields[0]
	}
	if len(fields) > 1 {
		reason = strings.Join(fields[1:], " ")
	}
	return analyzer, reason, true
}

// parseSuppressions collects every //det:ok annotation in the files.
func parseSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, reason, ok := parseAnnotation(c.Text)
				if !ok {
					continue
				}
				sup := &suppression{pos: fset.Position(c.Pos()), analyzer: analyzer, reason: reason}
				lines := s.byLine[sup.pos.Filename]
				if lines == nil {
					lines = make(map[int][]*suppression)
					s.byLine[sup.pos.Filename] = lines
				}
				lines[sup.pos.Line] = append(lines[sup.pos.Line], sup)
				s.all = append(s.all, sup)
			}
		}
	}
	return s
}

// covers reports whether an annotation for the analyzer covers the position.
// Matching annotations are marked used: the detokstale audit reports the
// ones that survive a whole package run without ever suppressing anything.
func (s *suppressions) covers(analyzer string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, sup := range lines[line] {
			if sup.analyzer == analyzer {
				sup.used = true
				hit = true
			}
		}
	}
	return hit
}

// SuppressionsAnalyzer is the name under which annotation-grammar findings
// are reported.
const SuppressionsAnalyzer = "detok"

// CheckSuppressions validates every //det:ok annotation in the files: the
// named analyzer must exist in known, and a non-empty reason is mandatory.
// Violations come back as findings, so a suppression that silences a
// diagnostic without justifying it fails the build exactly like the
// diagnostic would have.
func CheckSuppressions(fset *token.FileSet, files []*ast.File, known []*Analyzer) []Finding {
	names := make(map[string]bool, len(known))
	for _, a := range known {
		names[a.Name] = true
	}
	var out []Finding
	for _, sup := range parseSuppressions(fset, files).all {
		switch {
		case sup.analyzer == "":
			out = append(out, Finding{Pos: sup.pos, Analyzer: SuppressionsAnalyzer,
				Message: "suppression names no analyzer; write //det:ok <analyzer> <reason>"})
		case !names[sup.analyzer]:
			out = append(out, Finding{Pos: sup.pos, Analyzer: SuppressionsAnalyzer,
				Message: fmt.Sprintf("suppression names unknown analyzer %q", sup.analyzer)})
		case sup.reason == "":
			out = append(out, Finding{Pos: sup.pos, Analyzer: SuppressionsAnalyzer,
				Message: fmt.Sprintf("suppression of %q carries no reason; a written justification is mandatory", sup.analyzer)})
		}
	}
	return out
}

// Run applies one analyzer to one loaded package and returns its
// unsuppressed findings. The AppliesTo filter is not consulted here — the
// driver decides which packages an analyzer sees; fixture tests call Run
// directly.
func Run(a *Analyzer, pkg *Package) []Finding {
	return runWith(a, pkg, parseSuppressions(pkg.Fset, pkg.Files))
}

// runWith runs one analyzer against a shared suppression table, so the
// usage marks of one package's whole run accumulate in one place.
func runWith(a *Analyzer, pkg *Package, sup *suppressions) []Finding {
	var findings []Finding
	a.Run(&Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		sup:      sup,
		findings: &findings,
	})
	return findings
}

// RunAll applies every applicable analyzer plus the suppression-grammar
// check and the stale-suppression audit to the loaded packages and returns
// all findings sorted by position. The suppression table is parsed once per
// package and shared across the analyzers, so by the time the audit runs it
// knows exactly which annotations suppressed a finding and which are dead.
func RunAll(analyzers []*Analyzer, pkgs []*Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		sup := parseSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			findings = append(findings, runWith(a, pkg, sup)...)
		}
		findings = append(findings, CheckSuppressions(pkg.Fset, pkg.Files, analyzers)...)
		findings = append(findings, staleSuppressions(sup, analyzers)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

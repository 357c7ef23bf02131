// Package cfd implements conditional functional dependencies (CFDs) as
// defined in Section 2.1 of the paper: an embedded functional dependency
// X -> Y together with a pattern tuple of constants and unnamed variables.
//
// CFDs here are normalized (single RHS attribute); Normalize converts the
// general multi-attribute form. Following Section 7, a pattern tuple never
// matches a null value: CFDs only apply to tuples that precisely match a
// pattern tuple, and pattern tuples do not contain null.
package cfd

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Wildcard is the unnamed variable '_' of pattern tuples: it matches any
// non-null constant of the attribute domain.
const Wildcard = "_"

// CFD is a normalized conditional functional dependency
// R(X -> A, tp) with |RHS| = 1.
type CFD struct {
	// Name labels the CFD for diagnostics (e.g. "phi1").
	Name string
	// Schema is the relation schema the CFD is defined on.
	Schema *relation.Schema
	// LHS lists the attribute positions of X.
	LHS []int
	// RHS is the attribute position of A.
	RHS int
	// LHSPattern holds tp[X]: one constant or Wildcard per LHS attribute.
	LHSPattern []string
	// RHSPattern holds tp[A]: a constant or Wildcard.
	RHSPattern string
}

// New builds a normalized CFD over schema from attribute names and pattern
// values. It panics on unknown attributes or arity mismatches, since rules
// are static program data; use Parse for user input.
func New(name string, schema *relation.Schema, lhs []string, lhsPattern []string, rhs, rhsPattern string) *CFD {
	if len(lhs) != len(lhsPattern) {
		panic(fmt.Sprintf("cfd %s: %d LHS attrs but %d patterns", name, len(lhs), len(lhsPattern)))
	}
	return &CFD{
		Name:       name,
		Schema:     schema,
		LHS:        schema.MustIndexAll(lhs...),
		RHS:        schema.MustIndex(rhs),
		LHSPattern: append([]string(nil), lhsPattern...),
		RHSPattern: rhsPattern,
	}
}

// FD builds a traditional functional dependency (a CFD whose pattern tuple
// consists of wildcards only).
func FD(name string, schema *relation.Schema, lhs []string, rhs string) *CFD {
	pat := make([]string, len(lhs))
	for i := range pat {
		pat[i] = Wildcard
	}
	return New(name, schema, lhs, pat, rhs, Wildcard)
}

// IsConstant reports whether the CFD is a constant CFD (tp[A] is a
// constant). Constant CFDs are enforced per tuple; variable CFDs relate
// pairs of tuples.
func (c *CFD) IsConstant() bool { return c.RHSPattern != Wildcard }

// matchPattern implements v ≍ p for a single cell: a constant matches
// itself; the wildcard matches any non-null value; null matches nothing.
func matchPattern(v, p string) bool {
	if relation.IsNull(v) {
		return false
	}
	return p == Wildcard || v == p
}

// MatchLHS reports whether t[X] ≍ tp[X].
func (c *CFD) MatchLHS(t *relation.Tuple) bool {
	for i, a := range c.LHS {
		if !matchPattern(t.Values[a], c.LHSPattern[i]) {
			return false
		}
	}
	return true
}

// String renders the CFD in the paper's R(X -> A, tp) notation.
func (c *CFD) String() string {
	var lhs, pat []string
	for i, a := range c.LHS {
		lhs = append(lhs, c.Schema.Attrs[a])
		pat = append(pat, c.LHSPattern[i])
	}
	return fmt.Sprintf("%s([%s] -> [%s], (%s || %s))", c.Schema.Name,
		strings.Join(lhs, ","), c.Schema.Attrs[c.RHS],
		strings.Join(pat, ","), c.RHSPattern)
}

// Raw is a not-necessarily-normalized CFD with multiple RHS attributes, the
// general form R(X -> Y, tp) of the paper.
type Raw struct {
	Name       string
	Schema     *relation.Schema
	LHS        []string
	LHSPattern []string
	RHS        []string
	RHSPattern []string
}

// Normalize converts r into the equivalent set of normalized CFDs, one per
// RHS attribute (Section 2.2, "Normalized CFDs and MDs").
func (r Raw) Normalize() []*CFD {
	if len(r.RHS) != len(r.RHSPattern) {
		panic(fmt.Sprintf("cfd %s: %d RHS attrs but %d patterns", r.Name, len(r.RHS), len(r.RHSPattern)))
	}
	out := make([]*CFD, len(r.RHS))
	for i := range r.RHS {
		name := r.Name
		if len(r.RHS) > 1 {
			name = fmt.Sprintf("%s.%d", r.Name, i+1)
		}
		out[i] = New(name, r.Schema, r.LHS, r.LHSPattern, r.RHS[i], r.RHSPattern[i])
	}
	return out
}

package cfd

import (
	"fmt"

	"repro/internal/relation"
)

// Violation identifies a CFD violation. For a constant CFD, T2 is -1 and T1
// is the index of the single violating tuple. For a variable CFD, tuples T1
// and T2 agree on the (pattern-matched) LHS but differ on the RHS.
//
// Attr, Expected and Got describe the violation for reports and repair
// scheduling: Attr is the RHS attribute position; for a constant CFD,
// Expected is the required pattern constant and Got the tuple's value; for a
// variable CFD, Expected is T1's RHS value and Got is T2's.
type Violation struct {
	CFD      *CFD
	T1, T2   int
	Attr     int
	Expected string
	Got      string
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	attr := v.CFD.Schema.Attrs[v.Attr]
	if v.T2 < 0 {
		return fmt.Sprintf("%s: t%d[%s] = %q, pattern requires %q",
			v.CFD.Name, v.T1, attr, v.Got, v.Expected)
	}
	return fmt.Sprintf("%s: t%d[%s] = %q but t%d[%s] = %q on the same LHS",
		v.CFD.Name, v.T1, attr, v.Expected, v.T2, attr, v.Got)
}

// Satisfies reports whether D |= c.
func Satisfies(d *relation.Relation, c *CFD) bool {
	if c.IsConstant() {
		for _, t := range d.Tuples {
			if c.MatchLHS(t) && t.Values[c.RHS] != c.RHSPattern {
				return false
			}
		}
		return true
	}
	groups := make(map[string]string)
	var buf []byte
	for _, t := range d.Tuples {
		if !c.MatchLHS(t) {
			continue
		}
		v := t.Values[c.RHS]
		buf = relation.AppendKey(buf[:0], t, c.LHS)
		if prev, ok := groups[string(buf)]; ok {
			if prev != v {
				return false
			}
		} else {
			groups[string(buf)] = v
		}
	}
	return true
}

// SatisfiesAll reports whether D |= Σ.
func SatisfiesAll(d *relation.Relation, sigma []*CFD) bool {
	for _, c := range sigma {
		if !Satisfies(d, c) {
			return false
		}
	}
	return true
}

// Violations returns all violations of c in D. For variable CFDs, each
// LHS-equal group with k distinct RHS values yields pairwise violations
// between the first tuple of each differing value and the group's first
// tuple, which suffices for violation detection and repair scheduling.
func Violations(d *relation.Relation, c *CFD) []Violation {
	var out []Violation
	if c.IsConstant() {
		for i, t := range d.Tuples {
			if c.MatchLHS(t) && t.Values[c.RHS] != c.RHSPattern {
				out = append(out, Violation{
					CFD: c, T1: i, T2: -1, Attr: c.RHS,
					Expected: c.RHSPattern, Got: t.Values[c.RHS],
				})
			}
		}
		return out
	}
	first := make(map[string]int) // LHS key -> first tuple index
	var buf []byte
	for i, t := range d.Tuples {
		if !c.MatchLHS(t) {
			continue
		}
		buf = relation.AppendKey(buf[:0], t, c.LHS)
		j, ok := first[string(buf)]
		if !ok {
			first[string(buf)] = i
			continue
		}
		if d.Tuples[j].Values[c.RHS] != t.Values[c.RHS] {
			out = append(out, Violation{
				CFD: c, T1: j, T2: i, Attr: c.RHS,
				Expected: d.Tuples[j].Values[c.RHS], Got: t.Values[c.RHS],
			})
		}
	}
	return out
}

// Group is one LHS-equal group of a variable CFD: the tuples that pattern-
// match the LHS and agree on its key. Members are tuple indexes in relation
// order. It is the grouping unit shared by cRepair, eRepair, hRepair and
// the Checker.
type Group struct {
	CFD     *CFD
	Key     string
	Members []int
}

// Groups returns the LHS-equal groups of a variable CFD, ordered by first
// member. Constant CFDs have no groups.
func Groups(d *relation.Relation, c *CFD) []Group {
	if c.IsConstant() {
		return nil
	}
	byKey := make(map[string]*Group)
	var order []string
	var buf []byte
	for i, t := range d.Tuples {
		if !c.MatchLHS(t) {
			continue
		}
		buf = relation.AppendKey(buf[:0], t, c.LHS)
		g, ok := byKey[string(buf)]
		if !ok {
			key := string(buf)
			g = &Group{CFD: c, Key: key}
			byKey[key] = g
			order = append(order, key)
		}
		g.Members = append(g.Members, i)
	}
	out := make([]Group, 0, len(order))
	for _, key := range order {
		out = append(out, *byKey[key])
	}
	return out
}

// Package md implements matching dependencies (MDs) across a data relation
// and a master relation, as defined in Section 2.2 of the paper. Only
// positive MDs are represented: the rule grammar cannot express a negative
// MD, so the paper's embedding of negative MDs (Proposition 2.6) has no
// input here.
package md

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/similarity"
)

// Clause is one conjunct of an MD premise: R[A] ≈ Rm[B] for a similarity
// predicate ≈ from Υ.
type Clause struct {
	DataAttr   int
	MasterAttr int
	Pred       similarity.Predicate
}

// Pair is one identification R[E] ⇌ Rm[F] of an MD conclusion.
type Pair struct {
	DataAttr   int
	MasterAttr int
}

// MD is a positive matching dependency
//
//	⋀_j (R[Aj] ≈j Rm[Bj])  ->  ⋀_i (R[Ei] ⇌ Rm[Fi])
//
// refined for matching a (possibly dirty) relation against clean master
// data: when the premise holds for (t, s), t[Ei] is changed to s[Fi].
type MD struct {
	Name   string
	Data   *relation.Schema
	Master *relation.Schema
	LHS    []Clause
	RHS    []Pair
}

// New builds an MD from attribute names. Each LHS entry is
// (dataAttr, masterAttr, predicate); each RHS entry is
// (dataAttr, masterAttr). It panics on unknown attributes.
func New(name string, data, master *relation.Schema, lhs []ClauseSpec, rhs []PairSpec) *MD {
	m := &MD{Name: name, Data: data, Master: master}
	for _, c := range lhs {
		m.LHS = append(m.LHS, Clause{
			DataAttr:   data.MustIndex(c.Data),
			MasterAttr: master.MustIndex(c.Master),
			Pred:       c.Pred,
		})
	}
	for _, p := range rhs {
		m.RHS = append(m.RHS, Pair{
			DataAttr:   data.MustIndex(p.Data),
			MasterAttr: master.MustIndex(p.Master),
		})
	}
	return m
}

// ClauseSpec names a premise clause for New.
type ClauseSpec struct {
	Data   string
	Master string
	Pred   similarity.Predicate
}

// PairSpec names a conclusion pair for New.
type PairSpec struct {
	Data   string
	Master string
}

// Eq is shorthand for an equality premise clause.
func Eq(data, master string) ClauseSpec {
	return ClauseSpec{Data: data, Master: master, Pred: similarity.Equal()}
}

// Sim is shorthand for a similarity premise clause.
func Sim(data, master string, pred similarity.Predicate) ClauseSpec {
	return ClauseSpec{Data: data, Master: master, Pred: pred}
}

// MatchLHS reports whether the premise of m holds on data tuple t and master
// tuple s. Null values never satisfy a premise clause.
func (m *MD) MatchLHS(t, s *relation.Tuple) bool { return m.MatchLHSExcept(t, s, -1) }

// MatchLHSExcept is MatchLHS without premise clause skip (-1 checks every
// clause), for a caller that already knows clause skip holds on (t, s).
func (m *MD) MatchLHSExcept(t, s *relation.Tuple, skip int) bool {
	for i, c := range m.LHS {
		if i != skip && !c.Pred.Match(t.Values[c.DataAttr], s.Values[c.MasterAttr]) {
			return false
		}
	}
	return true
}

// RHSHolds reports whether t[Ei] = s[Fi] for all conclusion pairs.
func (m *MD) RHSHolds(t, s *relation.Tuple) bool {
	for _, p := range m.RHS {
		if t.Values[p.DataAttr] != s.Values[p.MasterAttr] {
			return false
		}
	}
	return true
}

// Normalize returns the equivalent set of MDs with single-pair conclusions
// (Section 2.2, "Normalized CFDs and MDs").
func (m *MD) Normalize() []*MD {
	if len(m.RHS) <= 1 {
		return []*MD{m}
	}
	out := make([]*MD, len(m.RHS))
	for i, p := range m.RHS {
		out[i] = &MD{
			Name:   fmt.Sprintf("%s.%d", m.Name, i+1),
			Data:   m.Data,
			Master: m.Master,
			LHS:    m.LHS,
			RHS:    []Pair{p},
		}
	}
	return out
}

// String renders the MD in the paper's notation.
func (m *MD) String() string {
	var lhs, rhs []string
	for _, c := range m.LHS {
		lhs = append(lhs, fmt.Sprintf("%s[%s] %s %s[%s]",
			m.Data.Name, m.Data.Attrs[c.DataAttr], c.Pred.Name,
			m.Master.Name, m.Master.Attrs[c.MasterAttr]))
	}
	for _, p := range m.RHS {
		rhs = append(rhs, fmt.Sprintf("%s[%s] <=> %s[%s]",
			m.Data.Name, m.Data.Attrs[p.DataAttr],
			m.Master.Name, m.Master.Attrs[p.MasterAttr]))
	}
	return strings.Join(lhs, " ^ ") + " -> " + strings.Join(rhs, " ^ ")
}

// Violation records a pair (t, s) on which an MD premise holds but the
// conclusion does not: tuple T of D can still be updated with master tuple S.
type Violation struct {
	MD   *MD
	T, S int
}

// Satisfies reports whether (D, Dm) |= m: no more tuples of D can be matched
// and updated with master tuples via m.
func Satisfies(d, dm *relation.Relation, m *MD) bool {
	for _, t := range d.Tuples {
		for _, s := range dm.Tuples {
			if m.MatchLHS(t, s) && !m.RHSHolds(t, s) {
				return false
			}
		}
	}
	return true
}

// SatisfiesAll reports whether (D, Dm) |= Γ.
func SatisfiesAll(d, dm *relation.Relation, gamma []*MD) bool {
	for _, m := range gamma {
		if !Satisfies(d, dm, m) {
			return false
		}
	}
	return true
}

// VisitViolations streams every violating (t, s) pair of m on (D, Dm) to fn
// in (T, S) order, stopping early when fn returns false. Callers that only
// count or sample violations use it to avoid materializing the worst-case
// O(|D|·|Dm|) pair set that Violations allocates.
func VisitViolations(d, dm *relation.Relation, m *MD, fn func(Violation) bool) {
	for i, t := range d.Tuples {
		for j, s := range dm.Tuples {
			if m.MatchLHS(t, s) && !m.RHSHolds(t, s) {
				if !fn(Violation{MD: m, T: i, S: j}) {
					return
				}
			}
		}
	}
}

// VisitViolationsBlocked streams the violating (t, s) pairs of m like
// VisitViolations, but restricts each data tuple's inner loop to the master
// indexes produced by a blocking candidate enumerator. candidates(i, t)
// must return master tuple indexes in ascending order, and the returned set
// must be exact for certification — a superset of every s on which m's
// premise can hold for t (pairs outside it must fail the premise) — so the
// streamed violations are precisely those of the nested scan, in the same
// (T, S) order. The returned slice is only borrowed: it may be reused by
// the next candidates call.
func VisitViolationsBlocked(d, dm *relation.Relation, m *MD,
	candidates func(i int, t *relation.Tuple) []int, fn func(Violation) bool) {
	for i, t := range d.Tuples {
		for _, j := range candidates(i, t) {
			s := dm.Tuples[j]
			if m.MatchLHS(t, s) && !m.RHSHolds(t, s) {
				if !fn(Violation{MD: m, T: i, S: j}) {
					return
				}
			}
		}
	}
}

// Violations returns all violating (t, s) pairs of m on (D, Dm).
func Violations(d, dm *relation.Relation, m *MD) []Violation {
	var out []Violation
	VisitViolations(d, dm, m, func(v Violation) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Package rule unifies CFDs and MDs as cleaning rules (Section 3.1 of the
// paper): directives that say which attributes to update and what value to
// write, with confidence propagated by the fuzzy-logic minimum. It also
// implements the dependency graph and rule ordering of Section 6.2.
package rule

import (
	"repro/internal/cfd"
	"repro/internal/md"
)

// Kind classifies a cleaning rule by the dependency it derives from.
type Kind int

const (
	// ConstantCFD rules write the RHS pattern constant (Section 3.1 (2)).
	ConstantCFD Kind = iota
	// VariableCFD rules copy the RHS value of another tuple in the same
	// LHS-equal group (Section 3.1 (3)).
	VariableCFD
	// MatchMD rules copy master values into matched tuples (Section 3.1 (1)).
	MatchMD
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case ConstantCFD:
		return "constantCFD"
	case VariableCFD:
		return "variableCFD"
	case MatchMD:
		return "matchMD"
	default:
		return "unknown"
	}
}

// Rule is a cleaning rule derived from either a normalized CFD or a
// normalized positive MD. Exactly one of CFD and MD is non-nil, determined
// by Kind.
type Rule struct {
	Kind Kind
	CFD  *cfd.CFD
	MD   *md.MD
}

// Name returns the name of the underlying dependency.
func (r Rule) Name() string {
	if r.MD != nil {
		return r.MD.Name
	}
	return r.CFD.Name
}

// LHSAttrs returns the data-relation attribute positions read by the rule's
// premise.
func (r Rule) LHSAttrs() []int {
	if r.Kind == MatchMD {
		out := make([]int, len(r.MD.LHS))
		for i, c := range r.MD.LHS {
			out[i] = c.DataAttr
		}
		return out
	}
	return r.CFD.LHS
}

// RHSAttrs returns the data-relation attribute positions the rule writes.
func (r Rule) RHSAttrs() []int {
	if r.Kind == MatchMD {
		out := make([]int, len(r.MD.RHS))
		for i, p := range r.MD.RHS {
			out[i] = p.DataAttr
		}
		return out
	}
	return []int{r.CFD.RHS}
}

// Derive builds the cleaning-rule set from normalized CFDs and positive MDs,
// preserving input order (CFDs first, then MDs).
func Derive(sigma []*cfd.CFD, gamma []*md.MD) []Rule {
	out := make([]Rule, 0, len(sigma)+len(gamma))
	for _, c := range sigma {
		k := VariableCFD
		if c.IsConstant() {
			k = ConstantCFD
		}
		out = append(out, Rule{Kind: k, CFD: c})
	}
	for _, m := range gamma {
		out = append(out, Rule{Kind: MatchMD, MD: m})
	}
	return out
}

package clean

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Violation is one certified rule violation in a cleaned relation.
type Violation struct {
	// Rule is the name of the violated dependency.
	Rule string
	// Kind classifies the underlying dependency.
	Kind rule.Kind
	// Attribute is the data-relation attribute the violation is about (the
	// CFD's RHS attribute, or the MD conclusion's data attribute).
	Attribute string
	// Tuples lists the involved data tuple indexes (one for constant CFDs
	// and MDs, two for variable CFDs).
	Tuples []int
	// Master is the master tuple index for MD violations, -1 otherwise.
	Master int
	// Detail is a human-readable description of the violation.
	Detail string
}

// String returns the violation's human-readable detail line.
func (v Violation) String() string { return v.Detail }

// maxStoredPerRule bounds how many violations of one rule a Report
// materializes. The per-rule and per-kind counts stay exact regardless —
// only the Violation structs beyond the cap are dropped (and tallied in
// Truncated) — so Clean, RuleClean and the summary are unaffected while a
// pathologically dirty instance (up to |D|·|Dm| violating MD pairs) cannot
// exhaust memory building its report.
const maxStoredPerRule = 100

// Report is the structured outcome of a Checker pass.
type Report struct {
	// Violations lists remaining violations, grouped by rule in rule order,
	// capped at maxStoredPerRule per rule; Truncated counts the rest.
	Violations []Violation
	// Truncated is the number of violations counted but not materialized
	// because their rule exceeded maxStoredPerRule.
	Truncated int
	// CertVisits counts the (tuple, master) premise verifications performed
	// while certifying MD rules: the deterministic work measure of the
	// blocked certification path, identical for any worker count. The naive
	// nested scan costs |D|·|Dm| per MD rule; the blocked enumeration
	// verifies only index candidates. Zero when no MD rule was checked.
	CertVisits int
	// Degraded marks a report produced by a run that stopped proposing
	// fixes early because a soft budget ran out (Options.Deadline or
	// Options.MaxFixes). The violation counts are still exact for the
	// relation as left: a degraded report is a truthful partial answer,
	// not an estimate. DegradeReason names the exhausted budget.
	Degraded      bool
	DegradeReason string
	// Patched is always 0: every report re-checks every rule. It stays for
	// callers that still read it.
	Patched int

	byRule    map[string]int // exact violations per checked rule name
	cfds, mds int            // exact counts by dependency kind
}

// Clean reports whether the relation satisfies every checked rule.
func (r *Report) Clean() bool { return r.cfds == 0 && r.mds == 0 }

// NumCFD and NumMD return the exact violation counts by dependency kind,
// including any violations dropped by the per-rule cap.
func (r *Report) NumCFD() int { return r.cfds }
func (r *Report) NumMD() int  { return r.mds }

// CFDViolations returns the materialized subset of violations of CFD rules.
func (r *Report) CFDViolations() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Kind != rule.MatchMD {
			out = append(out, v)
		}
	}
	return out
}

// MDViolations returns the materialized subset of violations of MD rules.
func (r *Report) MDViolations() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Kind == rule.MatchMD {
			out = append(out, v)
		}
	}
	return out
}

// RuleClean reports whether the named rule was checked and has no
// violations. known is false when no checked rule bears that name — a
// mistyped or stale name must not read as "certified clean", which is what
// the old single-return form silently did.
func (r *Report) RuleClean(name string) (clean, known bool) {
	n, ok := r.byRule[name]
	return ok && n == 0, ok
}

// String renders the report, one violation per line, with a summary header.
func (r *Report) String() string {
	if r.Clean() {
		return "certified clean: no violations\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dirty: %d CFD violations, %d MD violations\n", r.cfds, r.mds)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v.Detail)
	}
	if r.Truncated > 0 {
		fmt.Fprintf(&b, "... and %d more violations not shown\n", r.Truncated)
	}
	return b.String()
}

// Checker certifies the output of the cleaning pipeline: it re-derives,
// from the repaired relation alone, which rules still have violations and
// returns them as a structured Report. The engine's Finish uses it as the
// termination proof behind Result.Resolved/Unresolved, cmd/uniclean's
// -certify flag prints it, and the test suite uses it as the oracle for
// randomized instances.
//
// Certification never scans |D|·|Dm| when an index exists: equality-clause
// MDs enumerate candidates from the matcher's equality buckets, read off a
// premise column, and similarity-clause MDs from its positional q-gram
// index — an exact, untruncated enumeration (unlike the repair path's TopL
// blocking) whose order-preserving candidate merge streams violations in
// the same (T, S) order the nested scan would produce, so the Report is
// byte-identical. An engine run certifies from its own state: the premise
// columns Engine.write keeps exact, and the candidate lists its repair
// passes memoized. A standalone Check resolves its premise columns itself
// from the relation it certifies, which keeps it an independent check of
// the engine's column upkeep. Certification writes nothing: per-rule
// passes are independent and read-only, each probing the shared indexes
// through its own non-storing matcher, so with workers > 1 they fan out
// across fanOut's workers, and the rule-ordered report merge keeps the
// Report deterministic for any worker count.
type Checker struct {
	rules  []rule.Rule
	master *relation.Relation

	// indexes is parallel to rules: the blocking indexes MD certification
	// enumerates candidates from. NewChecker builds them; Engine.finish
	// hands the checker the engine's own, so indexes are built once per run.
	indexes []*mdIndex
	// workers bounds the per-rule certification fan-out of Check.
	workers int
	// noBlock forces the naive |D|·|Dm| scan for every MD — the reference
	// enumeration the blocked-vs-scan property tests compare against.
	noBlock bool
	// fj arms the certify fault hook; nil (the default) keeps it inert.
	fj *fault.Injector
}

// NewChecker builds a checker over the given rules, including the MD
// blocking indexes over master, one per distinct premise. master may be
// nil, in which case MD rules are vacuously satisfied (there is nothing to
// match against), mirroring the engine's behavior. The checker is
// sequential; the engine's Finish fans certification out across its
// workers instead.
func NewChecker(rules []rule.Rule, master *relation.Relation) *Checker {
	indexes := make([]*mdIndex, len(rules))
	if master != nil {
		all := identity(master.Len())
		for i, o := range premiseOwners(rules) {
			switch {
			case o == i:
				indexes[i] = newMDIndex(rules[i].MD, master, all)
			case o >= 0:
				indexes[i] = indexes[o]
			}
		}
	}
	return &Checker{rules: rules, master: master, indexes: indexes, workers: 1}
}

// ruleReport is one rule's certification outcome, produced independently,
// possibly on a fanOut worker, and merged into the Report in rule order.
// It stores at most maxStoredPerRule violations, the earliest ones, and
// tallies the rest in truncated.
type ruleReport struct {
	violations []Violation
	count      int // exact violations, including beyond the cap
	truncated  int
	visits     int // (t, s) premise verifications (MD rules only)
}

// Check certifies d against every rule and returns the violation report.
// It never mutates d. Certification tasks run concurrently when the checker
// has a worker budget; the report is identical for any worker count. Check
// is the legacy non-erroring form: a failure (possible only with a
// cancellable context or injected faults) panics.
func (c *Checker) Check(d *relation.Relation) *Report {
	rep, err := c.CheckContext(context.Background(), d)
	if err != nil {
		panic(err)
	}
	return rep
}

// CheckContext is Check under a context: certification stops between tasks
// on cancellation and returns ErrCanceled/ErrDeadline; a panicking task is
// contained and returned as a *WorkerError. Certification never mutates d,
// so there is nothing to roll back. Each distinct equality index resolves d
// into a premise column of the checker's own, so certification reads no
// engine bookkeeping.
func (c *Checker) CheckContext(ctx context.Context, d *relation.Relation) (*Report, error) {
	cols := make([][]int32, len(c.indexes)) // parallel to rules, shared per index
	for i, ix := range c.indexes {
		switch o := slices.Index(c.indexes, ix); {
		case ix == nil || ix.buckets == nil:
		case o < i:
			cols[i] = cols[o]
		default:
			cols[i] = newPremCol(ix, d).ids
		}
	}
	return c.check(ctx, d, cols)
}

// check certifies d, reading each equality index's premise column over d
// from cols (parallel to rules). Certification is read-only, so a task
// needs nothing but the ruleReport it returns and a matcher of its own:
// private scratch over the shared index and memo, storing nothing.
func (c *Checker) check(ctx context.Context, d *relation.Relation, cols [][]int32) (*Report, error) {
	run := func(ri int) ruleReport {
		c.fj.At(fault.SiteCertify, ri, 0)
		var x *matcher
		if ix := c.indexes[ri]; ix != nil {
			x = newMatcher(ix, cols[ri], false)
		}
		return c.checkRule(d, ri, x)
	}
	rrs, err := fanOut(ctx, c.fj, "certify", c.workers, len(c.rules), run)
	if err != nil {
		return nil, err
	}

	// Ordered merge: rule order and order-independent sums, so the Report
	// is byte-identical to the sequential pass for any worker count.
	rep := &Report{byRule: make(map[string]int, len(c.rules))}
	for ri, rr := range rrs {
		name := c.rules[ri].Name()
		rep.byRule[name] += rr.count // creates the entry even at zero: "checked"
		if c.rules[ri].Kind == rule.MatchMD {
			rep.mds += rr.count
		} else {
			rep.cfds += rr.count
		}
		rep.Violations = append(rep.Violations, rr.violations...)
		rep.Truncated += rr.truncated
		rep.CertVisits += rr.visits
	}
	return rep, nil
}

// checkRule certifies d against rule ri, enumerating MD candidates through
// x (nil only when master data is absent, making the MD vacuous).
func (c *Checker) checkRule(d *relation.Relation, ri int, x *matcher) ruleReport {
	r := c.rules[ri]
	var rr ruleReport
	switch r.Kind {
	case rule.MatchMD:
		if c.master == nil {
			return rr // vacuously satisfied, still recorded as checked
		}
		name := r.Name()
		c.visitMDViolations(d, r.MD, x, &rr.visits, func(v md.Violation) bool {
			rr.count++
			if len(rr.violations) >= maxStoredPerRule {
				// Beyond the cap: tally without formatting the detail.
				rr.truncated++
				return true
			}
			// A violating (t, s) pair disagrees on at least one
			// conclusion pair; report the first one that does, so the
			// report stays right even for MDs that were not normalized
			// to a single-pair conclusion.
			p := r.MD.RHS[0]
			for _, q := range r.MD.RHS {
				if d.Tuples[v.T].Values[q.DataAttr] != c.master.Tuples[v.S].Values[q.MasterAttr] {
					p = q
					break
				}
			}
			attr := d.Schema.Attrs[p.DataAttr]
			rr.violations = append(rr.violations, Violation{
				Rule: name, Kind: r.Kind, Attribute: attr,
				Tuples: []int{v.T}, Master: v.S,
				Detail: fmt.Sprintf("%s: t%d[%s] = %q, matched master tuple %d says %q",
					name, v.T, attr, d.Tuples[v.T].Values[p.DataAttr],
					v.S, c.master.Tuples[v.S].Values[p.MasterAttr]),
			})
			return true
		})
	default:
		for _, v := range cfd.Violations(d, r.CFD) {
			rr.count++
			if len(rr.violations) >= maxStoredPerRule {
				rr.truncated++
				continue
			}
			tuples := []int{v.T1}
			if v.T2 >= 0 {
				tuples = append(tuples, v.T2)
			}
			rr.violations = append(rr.violations, Violation{
				Rule: r.Name(), Kind: r.Kind,
				Attribute: d.Schema.Attrs[v.Attr],
				Tuples:    tuples, Master: -1,
				Detail: v.String(),
			})
		}
	}
	return rr
}

// visitMDViolations streams the violating (t, s) pairs of m in (T, S)
// order, counting every examined pair into visited. Candidates come from
// the matcher's exact certification enumeration (equality buckets or the
// untruncated q-gram candidate merge, both ascending) instead of the
// O(|D|·|Dm|) nested scan of md.VisitViolations. The enumeration is exact:
// a pair outside the candidate set fails a premise clause, and candidates
// arrive ascending per tuple, so the same violations appear in the same
// order as the scan. Tuples no index covers exactly — a value shorter than
// the LCS bound allows, or an MD with no indexable clause at all — fall
// back to scanning Dm for that tuple only.
func (c *Checker) visitMDViolations(d *relation.Relation, m *md.MD, x *matcher, visited *int, fn func(md.Violation) bool) {
	md.VisitViolationsBlocked(d, c.master, m, func(i int, t *relation.Tuple) []int {
		if !c.noBlock {
			if ids, ok := x.certCandidates(i, t); ok {
				*visited += len(ids)
				return ids
			}
		}
		*visited += len(x.all)
		return x.all
	}, fn)
}

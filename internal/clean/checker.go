package clean

import (
	"context"
	"fmt"
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
	// Patched counts rules this report served from a previous report's
	// cached per-rule result instead of re-checking — nonzero only on the
	// streaming update path (see docs/streaming.md), where a rule none of
	// whose read attributes changed since the last certified run keeps its
	// prior violations verbatim. Deliberately absent from String: a patched
	// report must be byte-identical to a from-scratch one.
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
// MDs enumerate candidates from the matcher's equality buckets, and
// similarity-clause MDs from its generalized suffix array — an exact,
// untruncated enumeration (unlike the repair path's TopL blocking) whose
// order-preserving candidate merge streams violations in the same (T, S)
// order the nested scan would produce, so the Report is byte-identical.
// Per-rule passes are independent and read-only; with workers > 1 they fan
// out across fanOut's workers with forked matchers, and the rule-ordered
// report merge keeps the Report deterministic for any worker count.
type Checker struct {
	rules  []rule.Rule
	master *relation.Relation

	// matchers is parallel to rules: the blocking indexes MD certification
	// enumerates candidates from. NewChecker builds them; Engine.Finish
	// hands the checker the engine's own, so indexes are built once per run.
	matchers []*matcher
	// allMaster is the identity candidate list 0..|Dm|-1 the per-tuple
	// full-scan fallback uses (no usable index, or the LCS bound is vacuous
	// for a too-short value). Shared read-only across workers.
	allMaster []int
	// workers bounds the per-rule certification fan-out of Check.
	workers int
	// noBlock forces the naive |D|·|Dm| scan for every MD — the reference
	// enumeration the blocked-vs-scan property tests compare against.
	noBlock bool
	// fj arms the certify fault hook; nil (the default) keeps it inert.
	// Engine.finish copies the engine's injector here.
	fj *fault.Injector
}

// NewChecker builds a checker over the given rules, including the MD
// blocking indexes over master. master may be nil, in which case MD rules
// are vacuously satisfied (there is nothing to match against), mirroring
// the engine's behavior. The checker is sequential; the engine's Finish
// fans certification out across its workers instead.
func NewChecker(rules []rule.Rule, master *relation.Relation) *Checker {
	matchers := make([]*matcher, len(rules))
	if master != nil {
		for i, r := range rules {
			if r.Kind == rule.MatchMD {
				matchers[i] = newMatcher(r.MD, master)
			}
		}
	}
	return newChecker(rules, master, matchers, 1)
}

// newChecker wires a checker from prebuilt matchers (parallel to rules) and
// a worker budget — the constructor Engine.Finish uses to reuse the engine's
// indexes and Options.Workers.
func newChecker(rules []rule.Rule, master *relation.Relation, matchers []*matcher, workers int) *Checker {
	c := &Checker{rules: rules, master: master, matchers: matchers, workers: workers}
	if master != nil {
		for _, r := range rules {
			if r.Kind == rule.MatchMD {
				c.allMaster = make([]int, master.Len())
				for j := range c.allMaster {
					c.allMaster[j] = j
				}
				break
			}
		}
	}
	return c
}

// ruleReport is one certification task's outcome — a whole rule, or one
// sub-range of an MD rule's scan — produced independently, possibly on a
// fanOut worker, and merged into the Report in (rule, range) order. Each task
// stores at most maxStoredPerRule violations; the merge re-applies the cap
// per rule after concatenation, which reproduces the sequential prefix
// exactly (every task keeps its earliest violations, and the global first
// maxStoredPerRule are the earliest of the in-order concatenation).
type ruleReport struct {
	violations []Violation
	count      int // exact violations, including beyond the cap
	truncated  int
	visits     int // (t, s) premise verifications (MD rules only)
}

// certShardMin is the smallest data-tuple range worth its own certification
// task: below it the per-task matcher fork costs more than the scan.
const certShardMin = 256

// certTask is one unit of the certification fan-out: rule ri restricted to
// data tuples [lo, hi). CFD rules are always one whole-relation task — their
// group scan is cheap — while an MD rule's blocked scan, the dominant
// certify cost, is sub-sharded into tuple ranges so one huge similarity MD
// no longer serializes the round behind a single worker. fanOut hands tasks
// out in index order, so the expensive MD shards start spread across the
// workers rather than queued behind one another.
type certTask struct {
	ri     int
	lo, hi int
}

// certTasks builds the certification task list in (rule, lo) order — the
// merge order of Check. A non-nil dirty mask drops the tasks of clean rules
// entirely: checkPatched serves those from the cached per-rule reports, so
// no worker ever visits them.
func (c *Checker) certTasks(d *relation.Relation, dirty []bool) []certTask {
	tasks := make([]certTask, 0, len(c.rules))
	for ri, r := range c.rules {
		if dirty != nil && !dirty[ri] {
			continue
		}
		if c.workers > 1 && r.Kind == rule.MatchMD && c.master != nil {
			n := d.Len() / certShardMin
			if lim := c.workers * 4; n > lim {
				n = lim
			}
			if n > 1 {
				for k := 0; k < n; k++ {
					tasks = append(tasks, certTask{ri: ri, lo: k * d.Len() / n, hi: (k + 1) * d.Len() / n})
				}
				continue
			}
		}
		tasks = append(tasks, certTask{ri: ri, lo: 0, hi: d.Len()})
	}
	return tasks
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
// so there is nothing to roll back.
func (c *Checker) CheckContext(ctx context.Context, d *relation.Relation) (*Report, error) {
	rep, _, err := c.checkPatched(ctx, d, nil, nil)
	return rep, err
}

// checkPatched is CheckContext with per-rule incremental patching: rules
// whose dirty bit is unset are served verbatim from cached (the per-rule
// reports of the previous certified pass, parallel to c.rules) instead of
// being re-checked. A nil dirty mask means every rule is dirty — plain
// CheckContext behavior. Because rule certification is a pure function of
// the rule's read columns and the immutable master, a cached report for a
// rule none of whose read attributes changed is byte-identical to what a
// re-check would produce, violations, cap, truncation tally and visit
// counters included. The returned perRule slice (parallel to c.rules)
// holds every rule's merged report — re-checked or cached — for the next
// patched pass to cache.
func (c *Checker) checkPatched(ctx context.Context, d *relation.Relation, dirty []bool, cached []ruleReport) (*Report, []ruleReport, error) {
	tasks := c.certTasks(d, dirty)
	subs := make([]ruleReport, len(tasks))
	for _, x := range c.matchers {
		if x != nil {
			x.bound(d.Len())
		}
	}
	// Before a parallel fan-out, prefetch memoizes each re-checked MD
	// rule's distinct values across the workers, so the read-only forks below
	// only hit.
	if c.workers > 1 && !c.noBlock {
		for ri, x := range c.matchers {
			if x == nil || (dirty != nil && !dirty[ri]) {
				continue
			}
			if err := x.prefetch(ctx, c.fj, c.workers, d, nil, true, 0); err != nil {
				return nil, nil, err
			}
		}
	}
	run := func(ti int) {
		t := tasks[ti]
		c.fj.At(fault.SiteCertify, t.ri, t.lo)
		// Certification is read-only, so tasks need nothing but disjoint
		// result slots. Matchers are forked per task (shared immutable
		// indexes and memo, private scratch).
		x := c.matchers[t.ri]
		if x != nil && c.workers > 1 {
			x = x.fork()
		}
		subs[ti] = c.checkRule(d, t.ri, t.lo, t.hi, x)
	}
	if err := fanOut(ctx, c.fj, "certify", c.workers, len(tasks), run); err != nil {
		return nil, nil, err
	}

	// Ordered merge: rule order, ascending-lo concatenation within a rule
	// (which reconstructs the sequential (T, S) violation stream), the
	// per-rule cap re-applied over the concatenation, order-independent
	// sums — byte-identical to the sequential pass for any worker count.
	// Clean rules have no tasks; their merged report is the cached one,
	// re-emitted into the same rule-order slot, so the Violations stream,
	// counts and visit totals come out as if the rule had been re-checked.
	rep := &Report{byRule: make(map[string]int, len(c.rules))}
	perRule := make([]ruleReport, len(c.rules))
	ti := 0
	for ri := range c.rules {
		var rr ruleReport
		if dirty != nil && !dirty[ri] {
			rr = cached[ri]
			rep.Patched++
		} else {
			for ; ti < len(tasks) && tasks[ti].ri == ri; ti++ {
				s := &subs[ti]
				rr.count += s.count
				rr.visits += s.visits
				rr.violations = append(rr.violations, s.violations...)
			}
			if len(rr.violations) > maxStoredPerRule {
				rr.violations = rr.violations[:maxStoredPerRule]
			}
			rr.truncated = rr.count - len(rr.violations)
		}
		perRule[ri] = rr

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
	return rep, perRule, nil
}

// checkRule certifies d against rule ri over the data tuples in [lo, hi) —
// the full relation for CFD rules, possibly one sub-shard for MD rules —
// enumerating MD candidates through x (nil only when master data is absent,
// making the MD vacuous).
func (c *Checker) checkRule(d *relation.Relation, ri, lo, hi int, x *matcher) ruleReport {
	r := c.rules[ri]
	var rr ruleReport
	switch r.Kind {
	case rule.MatchMD:
		if c.master == nil {
			return rr // vacuously satisfied, still recorded as checked
		}
		name := r.Name()
		c.visitMDViolationsRange(d, r.MD, x, lo, hi, &rr.visits, func(v md.Violation) bool {
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

// visitMDViolations streams the violating (t, s) pairs of m in (T, S) order,
// counting every examined pair into visited. Candidates come from the
// matcher's exact certification enumeration (equality buckets or the
// untruncated suffix-array merge, both ascending) instead of the O(|D|·|Dm|)
// nested scan of md.VisitViolations. The enumeration is exact: a pair
// outside the candidate set fails a premise clause, and candidates arrive
// ascending per tuple, so the same violations appear in the same order as
// the scan. Tuples no index covers exactly — a value shorter than the LCS
// bound allows, or an MD with no indexable clause at all — fall back to
// scanning Dm for that tuple only.
func (c *Checker) visitMDViolations(d *relation.Relation, m *md.MD, x *matcher, visited *int, fn func(md.Violation) bool) {
	c.visitMDViolationsRange(d, m, x, 0, d.Len(), visited, fn)
}

// visitMDViolationsRange is visitMDViolations restricted to the data tuples
// in [lo, hi) — the certify sub-shard entry point. Candidate enumeration is
// per data tuple, so a range visits exactly the pairs the full pass visits
// for those tuples, and ranges concatenated in ascending-lo order reproduce
// the full stream.
func (c *Checker) visitMDViolationsRange(d *relation.Relation, m *md.MD, x *matcher, lo, hi int, visited *int, fn func(md.Violation) bool) {
	md.VisitViolationsBlockedRange(d, c.master, m, lo, hi, func(i int, t *relation.Tuple) []int {
		if x != nil && !c.noBlock {
			if ids, ok := x.certCandidates(t); ok {
				*visited += len(ids)
				return ids
			}
		}
		*visited += len(c.allMaster)
		return c.allMaster
	}, fn)
}

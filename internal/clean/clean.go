// Package clean implements the unified data-cleaning engine of Sections 5
// and 6 of the paper: cRepair, the confidence-based phase that applies the
// ordered cleaning rules to a fixpoint and produces deterministic fixes;
// eRepair, the entropy-based phase that resolves the remaining variable-CFD
// conflicts in order of increasing entropy and produces reliable fixes; and
// hRepair, the heuristic phase that repairs whatever CFD violations survive
// both and produces possible fixes, so the pipeline terminates in a
// consistent instance. A Checker pass certifies the outcome.
//
// The engine never mutates its inputs: it clones the data relation, applies
// fixes to the clone, and reports every cell it wrote together with the rule
// that wrote it. Cells fixed by cRepair carry confidence at least η and are
// immutable for the rest of the process (Section 5.1); eRepair only touches
// mutable cells (Section 6.1). MD matching goes through blocking indexes —
// per-attribute hash indexes on equality clauses and a generalized suffix
// array for edit-distance clauses (Section 5.2) — so it is not O(|D|·|Dm|).
package clean

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/rule"
)

// confEps is the resolution at which summed cell confidences are compared:
// quantizing through it absorbs floating-point dust (0.1+0.2 ties with 0.3)
// while remaining a total order, so tie-breaks that the docs promise for
// "equal" confidence actually fire and resolution stays deterministic.
const confEps = 1e-9

// quantConf quantizes a summed confidence for tie-break comparisons.
func quantConf(x float64) int64 { return int64(math.Round(x / confEps)) }

// Options configures the cleaning pipeline.
type Options struct {
	// Eta is the confidence threshold η of Section 5: cRepair only applies
	// fixes whose propagated confidence reaches Eta, and cells at or above
	// Eta written by cRepair become immutable.
	Eta float64
	// TopL bounds the number of blocking candidates returned per
	// suffix-array lookup during MD matching (the constant l of Section 5.2).
	TopL int
	// HBudget is the per-cell change budget of hRepair: how many times the
	// heuristic phase may rewrite one cell before falling back to
	// retraction, which prevents oscillation between interacting rules.
	// 0 means DefaultHBudget.
	HBudget int
	// Workers bounds the engine's fan-outs, which run its pure work
	// concurrently: building the indexes, an MD pass's lookup prefetch,
	// eRepair's entropy re-keying and certification. Rule passes
	// themselves always run inline on the engine goroutine (see
	// parallel.go). Any Workers value produces fix-for-fix identical
	// Results — same Fixes order, Asserts, Conflicts, Rounds, work counters
	// and certified Report. 0 means GOMAXPROCS; 1 runs everything on the
	// engine goroutine.
	Workers int
	// SeqCutoff is the work threshold below which a fan-out runs inline on
	// the engine goroutine instead: spawning workers for a handful of
	// tuples costs more than the work itself. Work is estimated in tuple
	// visits (tuples for an MD pass's prefetch, total members for an
	// eRepair re-key batch). 0 means DefaultSeqCutoff. Negative forces
	// every nonempty fan-out onto the workers, which tests use to exercise
	// them on tiny property-test instances. Neither choice can change any output: a
	// fan-out's tasks return their results, merged in task order.
	SeqCutoff int
	// Deadline is the soft wall-clock budget of the run. Zero means none.
	// Unlike a context deadline — which aborts with ErrDeadline — exceeding
	// the soft budget degrades gracefully: the engine stops proposing new
	// work at the next round boundary, finishes the round already committed,
	// runs the Checker over whatever state it reached, and returns a Result
	// whose Report is flagged Degraded with the exact remaining-violation
	// counts. A truthful partial answer instead of an overrun or a lie.
	// Setting Deadline makes the outcome timing-dependent by design, so the
	// byte-identity suites never set it.
	Deadline time.Duration
	// MaxFixes is the soft resource ceiling on applied fixes: once the run
	// has recorded at least MaxFixes fixes it stops proposing at the next
	// round boundary and degrades exactly like Deadline. Zero means
	// unlimited. Unlike Deadline, MaxFixes is deterministic: the same input
	// and options degrade at the same point every run. Deadline and
	// MaxFixes are the only budgets: the fixpoint loops need no round
	// bound, since every cRepair fix or assertion freezes a previously
	// mutable cell and hRepair's per-cell budget is HBudget.
	MaxFixes int
	// Fault arms the deterministic fault injector (internal/fault) on the
	// engine's hook points — applier visits, matcher probes, fan-out
	// scheduling, certification tasks. Nil (the default) leaves the hooks
	// inert at the cost of one predictable nil-check branch. Only the
	// robustness property suite sets it.
	Fault *fault.Injector
}

// DefaultSeqCutoff is the fan-out work threshold used when
// Options.SeqCutoff is zero. At ~128 tuple visits the work is on the order
// of the fan-out overhead (goroutine wakeups, result slots, the merge), so
// smaller passes are faster inline on every machine.
const DefaultSeqCutoff = 128

// seqCutoff resolves Options.SeqCutoff to the effective inline threshold:
// 0 picks the default, negative disables the fast path entirely.
func (o Options) seqCutoff() int {
	if o.SeqCutoff == 0 {
		return DefaultSeqCutoff
	}
	return o.SeqCutoff
}

// inline reports whether a fan-out with the given estimated tuple-visit
// work should bypass the workers and run on the engine goroutine.
func (e *Engine) inline(work int) bool {
	if e.workers <= 1 || work == 0 {
		return true
	}
	cut := e.opts.seqCutoff()
	if cut < 0 {
		return false // forced fan-out: the determinism suites' escape hatch
	}
	// A single-P process cannot overlap any work: fanning out would pay
	// the overhead with zero parallelism to show for it, so everything
	// runs inline regardless of size.
	if runtime.GOMAXPROCS(0) == 1 {
		return true
	}
	return work < cut
}

// workerCount resolves Options.Workers to the effective fan-out width.
func (o Options) workerCount() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// DefaultOptions returns the thresholds used in the paper's experiments.
func DefaultOptions() Options { return Options{Eta: 0.8, TopL: 32} }

// Fix records one cell write performed by the engine.
type Fix struct {
	Tuple     int     // tuple index in the data relation
	Attr      int     // attribute position
	Attribute string  // attribute name, for reports
	Old, New  string  // value before and after
	Conf      float64 // confidence attached to the new value
	Mark      relation.FixMark
	Rule      string // name of the rule that produced the fix
}

// String renders the fix as "tN[attr]: old -> new (conf, mark, rule)".
func (f Fix) String() string {
	return fmt.Sprintf("t%d[%s]: %q -> %q (conf %.2f, %s, %s)",
		f.Tuple, f.Attribute, f.Old, f.New, f.Conf, f.Mark, f.Rule)
}

// MatchStats counts the work done by one MD's blocking matcher, so that
// tests and reports can verify matching does not degenerate to a full scan.
type MatchStats struct {
	Lookups    int // candidate queries issued (one per tuple visit)
	Candidates int // master tuples examined across all lookups
	Verified   int // candidates on which the full premise held
	FullScans  int // lookups that had no usable index and scanned Dm
	MasterSize int // |Dm|
}

// ApplyStats counts, per rule, the tuples and groups its appliers examined
// across the whole run. It is the scheduler's analogue of MatchStats: the
// deterministic work measure that benchmarks and the CI gate track, free of
// timing noise.
type ApplyStats struct {
	CTuples int // tuples (or group members) examined by the cRepair applier
	CGroups int // variable-CFD groups examined by the cRepair applier
	ETuples int // group members examined while (re)keying eRepair's tree
	HTuples int // tuples (or group members) examined by the hRepair applier
}

// Visits returns the rule's total tuple visits across all phases.
func (s *ApplyStats) Visits() int { return s.CTuples + s.ETuples + s.HTuples }

// Result is the outcome of a cleaning run.
type Result struct {
	// Data is the repaired relation (a clone of the input).
	Data *relation.Relation
	// Fixes lists every cell whose value changed, in application order.
	Fixes []Fix
	// Asserts counts cells whose value was confirmed (not changed) by a
	// deterministic rule and thereby frozen with confidence >= Eta.
	Asserts int
	// Conflicts describes fixes the engine refused to apply because they
	// would overwrite an immutable cell or because high-confidence
	// evidence disagreed.
	Conflicts []string
	// Rounds is the number of cRepair fixpoint passes executed.
	Rounds int
	// HRounds is the number of hRepair fixpoint passes executed.
	HRounds int
	// GroupsResolved counts the variable-CFD groups resolved by eRepair.
	GroupsResolved int
	// Match maps MD rule names to their blocking statistics.
	Match map[string]*MatchStats
	// Apply maps rule names to their applier work counters.
	Apply map[string]*ApplyStats
	// Resolved and Unresolved partition the rule names by whether the
	// repaired data satisfies the underlying dependency, as certified by
	// Report.
	Resolved, Unresolved []string
	// Report is the Checker's certification of Data against the rule set:
	// the structured violations behind Resolved/Unresolved.
	Report *Report
	// WorkerVisits is always nil: rule passes run inline, so no visit is
	// attributed to a worker. It stays for callers that still read it.
	WorkerVisits []int64
	// Degraded reports that a soft budget (Options.Deadline or
	// Options.MaxFixes) stopped the run before the pipeline's fixpoint:
	// every committed round is complete and certified, but violations the
	// engine could have repaired may remain, counted exactly in Report.
	// DegradeReason names the exhausted budget ("deadline", "max-fixes").
	Degraded      bool
	DegradeReason string
}

// FixesMarked returns the subset of Fixes carrying the given mark, i.e. the
// fixes of one pipeline phase.
func (r *Result) FixesMarked(m relation.FixMark) []Fix {
	var out []Fix
	for _, f := range r.Fixes {
		if f.Mark == m {
			out = append(out, f)
		}
	}
	return out
}

// DeterministicFixes returns the subset of Fixes produced by cRepair.
func (r *Result) DeterministicFixes() []Fix {
	return r.FixesMarked(relation.FixDeterministic)
}

// ReliableFixes returns the subset of Fixes produced by eRepair.
func (r *Result) ReliableFixes() []Fix {
	return r.FixesMarked(relation.FixReliable)
}

// PossibleFixes returns the subset of Fixes produced by hRepair.
func (r *Result) PossibleFixes() []Fix {
	return r.FixesMarked(relation.FixPossible)
}

// TotalVisits sums the applier tuple visits over all rules: the
// scheduler-work measure benchmarks and the CI gate track.
func (r *Result) TotalVisits() int {
	n := 0
	for _, s := range r.Apply { //det:ok maporder integer sum is order-independent
		n += s.Visits()
	}
	return n
}

// Engine runs the cleaning pipeline over a cloned data relation.
type Engine struct {
	data     *relation.Relation
	master   *relation.Relation
	rules    []rule.Rule
	opts     Options
	matchers []*matcher // parallel to rules; nil for CFD rules
	res      *Result
	seen     map[string]bool // conflicts already recorded
	hleft    map[[2]int]int  // hRepair's per-cell budget, shared across passes

	work    worklist      // what each rule pass visits (schedule.go)
	codes   cellCodes     // the variable-CFD columns of data, dictionary-coded (codes.go)
	apply   []*ApplyStats // parallel to rules
	workers int           // fan-out width, Options.workerCount()

	// ctx carries the run's cooperative cancellation: the round loops, the
	// eRepair resolution loop, the fan-out loops and the certify tasks
	// all poll it, so a cancel or deadline surfaces as a typed error within
	// one round. Always non-nil (Background for the legacy Run/New API).
	ctx context.Context
	// fail is the first failure observed — ErrCanceled, ErrDeadline, or a
	// contained *WorkerError. Once set it poisons the engine: every phase
	// becomes a no-op and the run returns it. The poisoned state is safe
	// because it is thrown away: the engine writes only its private clone,
	// and a failed run returns no Result, so a half-applied round is never
	// observable.
	fail error
	// degraded names the soft budget that stopped proposal ("deadline",
	// "max-fixes"), or "" while the run is within budget. Unlike fail, a
	// degraded engine still certifies: Finish runs the Checker and flags
	// the Result and Report.
	degraded string
	// start anchors the Options.Deadline soft budget.
	start time.Time
	// fj is Options.Fault; nil keeps every hook point inert.
	fj *fault.Injector

	// stream is the committed state of a streaming engine (see stream.go),
	// shared by the shell NewStream returns and each update's sub-run. Nil
	// on batch engines: RunContext never sets it, so the one-shot pipeline
	// pays nothing for the update API existing.
	stream *stream
}

// New prepares an engine: it clones data, orders the rules per Section 6.2,
// builds the MD blocking indexes over master, and builds the delta
// scheduler (reverse dependency map, variable-CFD group indexes) over the
// clone.
// master may be nil when the rule set contains no MDs. The engine is not
// cancellable; use NewContext to attach a context.
func New(data, master *relation.Relation, rules []rule.Rule, opts Options) *Engine {
	return NewContext(context.Background(), data, master, rules, opts)
}

// NewContext is New with a context attached: the engine polls ctx at round
// granularity (round loops, the eRepair resolution loop, fan-out loops,
// certify tasks) and fails with ErrCanceled/ErrDeadline once it is done.
func NewContext(ctx context.Context, data, master *relation.Relation, rules []rule.Rule, opts Options) *Engine {
	return newEngine(ctx, data, master, rule.Order(rules), nil, opts)
}

// newEngine wires an engine from already-ordered rules. st is nil for a
// batch engine; a streaming sub-run gets its stream's committed state, and
// once the stream holds prebuilt master blocking indexes (parallel to
// ordered) they are reused instead of rebuilt, so each update's sub-run
// shares the indexes and lookup memo the initial run built.
func newEngine(ctx context.Context, data, master *relation.Relation, ordered []rule.Rule, st *stream, opts Options) *Engine {
	e := &Engine{
		master:  master,
		rules:   ordered,
		opts:    opts,
		workers: opts.workerCount(),
		res:     &Result{Match: make(map[string]*MatchStats), Apply: make(map[string]*ApplyStats)},
		seen:    make(map[string]bool),
		ctx:     ctx,
		start:   time.Now(),
		fj:      opts.Fault,
		stream:  st,
	}
	e.matchers = make([]*matcher, len(e.rules))
	e.apply = make([]*ApplyStats, len(e.rules))
	var fresh []int // MD rules whose matcher is built here
	for i, r := range e.rules {
		if r.Kind == rule.MatchMD && master != nil {
			if st != nil && st.protos != nil && st.protos[i] != nil {
				// The copy shares the immutable equality buckets, suffix
				// array and lookup memo with zeroed statistics, so a
				// sub-run's matcher work counters come out identical to a
				// fresh build's, and its lookups land in the memo every
				// later update reuses.
				e.matchers[i] = st.protos[i].reuse()
			} else {
				fresh = append(fresh, i)
			}
		}
		e.apply[i] = &ApplyStats{}
		e.res.Apply[r.Name()] = e.apply[i]
	}
	// The data clone, the cell codes with the scheduler over them, and
	// each fresh matcher's blocking indexes (the suffix array above all),
	// are independent pure builds: with workers they run as concurrent
	// tasks, the two longest first. The codes and the scheduler read data,
	// whose values the clone copies, so they need not wait for it. A panic
	// in one propagates, as it would from the sequential build.
	type part struct {
		clone *relation.Relation
		codes cellCodes
		work  worklist
		m     *matcher
	}
	build := func(k int) part {
		switch k {
		case 0:
			return part{clone: data.Clone()}
		case 1:
			codes := newCellCodes(e.rules, data)
			return part{codes: codes, work: newScheduler(e.rules, data, codes)}
		}
		return part{m: newMatcher(e.rules[fresh[k-2]].MD, master)}
	}
	workers := e.workers
	if runtime.GOMAXPROCS(0) == 1 {
		workers = 1
	}
	// No fault injector: a panic here is re-raised to the caller, outside
	// runAll's containment.
	parts, err := fanOut(context.Background(), nil, "new", workers, len(fresh)+2, build)
	if err != nil {
		panic(err)
	}
	e.data, e.codes, e.work = parts[0].clone, parts[1].codes, parts[1].work
	for k, i := range fresh {
		e.matchers[i] = parts[k+2].m
	}
	for i, x := range e.matchers {
		if x != nil {
			x.bound(data.Len())
			e.res.Match[e.rules[i].Name()] = &x.stats
		}
	}
	return e
}

// noteWrite tells the worklist that cell (i, a) changed — value, confidence
// or mark — so the rules reading a get re-enqueued. Both engine write paths,
// write and assert, funnel through it; that is what keeps the group indexes
// and worklists exact.
func (e *Engine) noteWrite(i, a int) {
	e.work.noteWrite(i, a, e.data.Tuples[i])
}

// Run executes the full tri-level pipeline — cRepair (deterministic fixes),
// eRepair (reliable fixes), hRepair (possible fixes) — to an outer fixpoint
// and returns the certified result.
//
// The phases loop because they feed each other: an eRepair or hRepair write
// carries a derived confidence that can reach Eta and thereby enable a
// deterministic rule (an MD premise, say) that could not fire before, so a
// single pass would certify as dirty data the engine itself can clean on a
// second invocation. Every pass ends with HRepair, so the heuristic phase's
// CFD-consistency guarantee holds for the final instance. hRepair's
// per-cell change budget is shared across passes, and the pass count is
// hard-capped by the cell count as a backstop against write cycles through
// interacting rules.
func Run(data, master *relation.Relation, rules []rule.Rule, opts Options) *Result {
	res, err := RunContext(context.Background(), data, master, rules, opts)
	if err != nil {
		// Unreachable without a cancellable context or an armed fault
		// injector — Background never cancels, so the only failure mode
		// left is a contained panic, which the legacy API re-raises.
		panic(err)
	}
	return res
}

// RunContext is Run under a context: a cancel or deadline stops the run at
// the next cancellation point (round boundaries, fan-out loops, the
// eRepair resolution loop, certify tasks) and returns ErrCanceled or
// ErrDeadline. Panics anywhere in the pipeline are contained and returned as
// a *WorkerError. On any error the caller's input relation is untouched —
// the engine only ever writes its private clone — and no Result is returned:
// a run either completes (possibly Degraded, see Options.Deadline/MaxFixes)
// or fails as a unit.
func RunContext(ctx context.Context, data, master *relation.Relation, rules []rule.Rule, opts Options) (*Result, error) {
	return NewContext(ctx, data, master, rules, opts).runAll()
}

// runAll drives the outer pass loop to its fixpoint and certifies — the body
// of RunContext, shared with the streaming update path, which runs it on a
// fresh sub-engine per update.
func (e *Engine) runAll() (res *Result, err error) {
	defer func() {
		// Containment of last resort: a panic on the engine goroutine — the
		// phase code, a rule pass (re-raised with its coordinates by
		// contain), the checker driver — surfaces as a structured error
		// instead of tearing down the process. fanOut's workers have their
		// own recover, so a worker panic never reaches the runtime's crash
		// path.
		if r := recover(); r != nil {
			if we, ok := r.(*WorkerError); ok {
				res, err = nil, we
				return
			}
			res, err = nil, newWorkerError(r, "run", "", -1, -1)
		}
	}()
	maxPasses := 1 + e.data.Len()*e.data.Schema.Arity()
	for pass := 0; pass < maxPasses; pass++ {
		before := len(e.res.Fixes) + e.res.Asserts
		e.CRepair()
		e.ERepair()
		e.HRepair()
		if e.fail != nil || e.degraded != "" {
			break
		}
		if len(e.res.Fixes)+e.res.Asserts == before {
			break
		}
	}
	return e.finish()
}

// interrupted reports whether the engine must stop: a prior failure, or the
// context having been canceled (which becomes the failure). Every phase
// checks it at round granularity, which bounds cancellation latency to one
// round of the current worklists.
func (e *Engine) interrupted() bool {
	if e.fail != nil {
		return true
	}
	if err := e.ctx.Err(); err != nil {
		e.fail = ctxErr(err)
		return true
	}
	return false
}

// exhausted reports whether a soft budget has run out, recording the reason
// on first detection. Checked at the same round boundaries as interrupted:
// the round already committed is kept — it is complete — and no new round
// starts, which is the "finish committed rounds, then degrade" contract.
func (e *Engine) exhausted() bool {
	if e.degraded != "" {
		return true
	}
	if e.opts.MaxFixes > 0 && len(e.res.Fixes) >= e.opts.MaxFixes {
		e.degraded = "max-fixes"
		return true
	}
	if e.opts.Deadline > 0 && time.Since(e.start) >= e.opts.Deadline {
		e.degraded = "deadline"
		return true
	}
	return false
}

// Finish certifies the repaired relation with a Checker pass — the
// termination proof of the pipeline: every rule is re-verified from the data
// alone, independently of what the repair phases claim to have fixed — and
// returns the accumulated result. Finish is the legacy non-erroring form: a
// failure (possible only with a cancellable context or injected faults)
// panics, as the pre-context engine would have.
func (e *Engine) Finish() *Result {
	res, err := e.finish()
	if err != nil {
		panic(err)
	}
	return res
}

// finish certifies and assembles the Result, or returns the run's failure.
func (e *Engine) finish() (*Result, error) {
	if e.interrupted() {
		return nil, e.fail
	}
	e.res.Data = e.data
	// The checker reuses the engine's own blocking matchers (indexes are
	// built once per run) and fans its per-rule passes across the engine's
	// workers; the rule-ordered report merge keeps
	// the Report deterministic for any worker count, so -certify output is
	// identical whatever -workers says.
	ck := newChecker(e.rules, e.master, e.matchers, e.workers)
	ck.fj = e.fj
	rep, err := ck.CheckContext(e.ctx, e.data)
	if err != nil {
		return nil, err
	}
	e.res.Report = rep
	if e.degraded != "" {
		e.res.Degraded, e.res.DegradeReason = true, e.degraded
		rep.Degraded, rep.DegradeReason = true, e.degraded
	}
	for _, r := range e.rules {
		if clean, _ := e.res.Report.RuleClean(r.Name()); clean {
			e.res.Resolved = append(e.res.Resolved, r.Name())
		} else {
			e.res.Unresolved = append(e.res.Unresolved, r.Name())
		}
	}
	return e.res, nil
}

// hbudget resolves the per-cell change budget of hRepair.
func (e *Engine) hbudget() int {
	if e.opts.HBudget > 0 {
		return e.opts.HBudget
	}
	return DefaultHBudget
}

// spend consumes one unit of cell (i, a)'s hRepair change budget and
// reports whether a unit was available. The budget map lives on the engine
// so it spans the outer passes of Run: a cell hRepair gave up on is not
// granted a fresh budget just because cRepair ran again.
func (e *Engine) spend(i, a int) bool {
	if e.hleft == nil {
		e.hleft = make(map[[2]int]int)
	}
	k := [2]int{i, a}
	left, ok := e.hleft[k]
	if !ok {
		left = e.hbudget()
	}
	if left == 0 {
		return false
	}
	e.hleft[k] = left - 1
	return true
}

// conflictf records a conflict once: an unresolvable conflict would
// otherwise be re-recorded on every re-visit of its tuple or group.
func (e *Engine) conflictf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if e.seen[msg] {
		return
	}
	e.seen[msg] = true
	e.res.Conflicts = append(e.res.Conflicts, msg)
}

// minConfAt returns the fuzzy minimum of t's confidences at attrs, with the
// same semantics as rule.MinConf (1 when attrs is empty) but computed in
// place: it sits on the hottest path — every tuple visit of every rule — so
// it must not allocate.
func minConfAt(t *relation.Tuple, attrs []int) float64 {
	m := 1.0
	for _, a := range attrs {
		if c := t.Conf[a]; c < m {
			m = c
		}
	}
	return m
}

// assert freezes cell (i, a): the cell keeps its value, its confidence is
// raised to at least conf, and it is marked as a deterministic fix. It
// reports whether anything changed (already-frozen cells are left alone).
func (e *Engine) assert(i, a int, conf float64) int {
	t := e.data.Tuples[i]
	if t.Marks[a] == relation.FixDeterministic {
		return 0
	}
	if conf > t.Conf[a] {
		t.Conf[a] = conf
	}
	t.Marks[a] = relation.FixDeterministic
	e.res.Asserts++
	e.noteWrite(i, a)
	return 1
}

// write sets cell (i, a) to value v with confidence conf and the given
// mark, recording the Fix in the result: the one cell-write path of cRepair
// (FixDeterministic), eRepair (FixReliable) and hRepair (FixPossible), and
// so the one place the cell codes follow a value. The caller must have
// checked that the cell may be written and that v differs from the current
// value.
func (e *Engine) write(i, a int, v string, conf float64, mark relation.FixMark, ruleName string) int {
	t := e.data.Tuples[i]
	e.res.Fixes = append(e.res.Fixes, Fix{
		Tuple: i, Attr: a, Attribute: e.data.Schema.Attrs[a],
		Old: t.Values[a], New: v, Conf: conf,
		Mark: mark, Rule: ruleName,
	})
	t.Set(a, v, conf, mark)
	if col := e.codes[a]; col != nil {
		col.code[i] = col.intern(v)
	}
	e.noteWrite(i, a)
	return 1
}

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
	// TopL is the number of master values kept per edit-distance lookup
	// during MD matching, closest first (the constant l of Section 5.2):
	// the l distinct values nearest the data value among those within the
	// clause's K, each expanded to its master tuples.
	TopL int
	// HBudget is the per-cell change budget of hRepair: how many times the
	// heuristic phase may rewrite one cell before falling back to
	// retraction, which prevents oscillation between interacting rules.
	// 0 means DefaultHBudget.
	HBudget int
	// Workers bounds the engine's fan-outs, which run its pure work
	// concurrently: building the indexes, an MD pass's lookup prefetch and
	// certification, one task per rule. Rule passes and eRepair's entropy
	// re-keying always run inline on the engine goroutine (see
	// parallel.go), and so does a fan-out too small to pay for its
	// goroutines (see Engine.width). Any Workers value produces
	// fix-for-fix identical Results — same Fixes order, Asserts, Conflicts,
	// Rounds, work counters and certified Report. 0 means GOMAXPROCS; 1
	// runs everything on the engine goroutine.
	Workers int
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

	// forceFanOut sends every nonempty fan-out to Workers goroutines,
	// whatever its size and GOMAXPROCS: the test seam that runs the
	// fan-outs on tiny instances. No output may depend on it.
	forceFanOut bool
}

// seqCutoff is the estimated tuple visits below which a fan-out runs
// inline on the engine goroutine. At about 128 tuple visits the work is on
// the order of the fan-out overhead (goroutine wakeups, result slots, the
// merge), so smaller fan-outs are faster inline on every machine.
const seqCutoff = 128

// width returns how many goroutines a fan-out over work estimated tuple
// visits runs on — the relation's tuples for the index builds and
// certification, the pass's tuples for an MD pass's prefetch — where 1
// means inline on the engine goroutine. It is the resolved Workers, except
// 1 when Workers is 1, when a single P cannot overlap any work, or when
// work is under seqCutoff. The choice cannot change any output: a
// fan-out's tasks return their results, merged in task order.
func (e *Engine) width(work int) int {
	if e.workers <= 1 || work == 0 {
		return 1
	}
	if e.opts.forceFanOut {
		return e.workers
	}
	if runtime.GOMAXPROCS(0) == 1 || work < seqCutoff {
		return 1
	}
	return e.workers
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
	indexes  []*mdIndex // parallel to rules; nil for CFD rules; shared per premise
	matchers []*matcher // this run's probes of indexes, parallel to rules
	res      *Result
	seen     map[string]bool // conflicts already recorded
	hleft    map[[2]int]int  // hRepair's per-cell budget, shared across passes

	work     worklist      // what each rule pass visits: the scheduler, or the rescan reference in tests (schedule.go)
	derived                // the codes, scheduler and premise columns derived from data
	premAt   [][]*premCol  // attribute -> the premise columns write re-resolves (match.go)
	cols     [][]int32     // parallel to rules: the ids of each MD rule's premise column, nil without equality clauses
	owned    []bool        // per tuple: write has copied its Values; nil when every Values slice is the engine's own
	spare    []string      // the unused rest of own's current chunk
	apply    []*ApplyStats // parallel to rules
	workers  int           // fan-out width, Options.workerCount()
	prefetch bool          // MD passes prefetch their lookups (see applyTuples)

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
	// held by the shell NewStream returns. Nil on batch engines, the
	// sub-engines a stream runs included: those get copies of its indexes
	// and derived state.
	stream *stream
}

// derived is what an engine derives from its data besides the clone: the
// cell codes (codes.go), the delta scheduler over them with its group
// indexes and identity listing (schedule.go), and, parallel to the rules,
// each premise owner's premise column when its index has equality buckets
// (match.go). Engine.write keeps all of it exact. newEngine builds it in
// one fan-out with the clone; a stream keeps a copy and patches it per
// update (stream.go).
type derived struct {
	codes cellCodes
	sched *scheduler
	prem  []*premCol
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

// newEngine wires an engine from already-ordered rules and derives its
// state from data. indexes is nil when the engine builds its own MD
// blocking indexes over master, one per distinct premise (premiseOwners);
// a stream re-deriving its kept state passes the indexes (parallel to
// ordered) its initial run built. Either way one build task per premise
// owner builds the owner's index when none was passed and resolves the
// engine's premise column over data when the index has equality buckets:
// the one column per distinct equality index that Engine.write keeps
// exact, the matchers read and certification reads in finish.
func newEngine(ctx context.Context, data, master *relation.Relation, ordered []rule.Rule, indexes []*mdIndex, opts Options) *Engine {
	e := newBareEngine(ctx, master, ordered, indexes, opts)
	owner := premiseOwners(e.rules)
	var owners, all []int // all: the identity list the fresh indexes share
	if master != nil {
		for i, o := range owner {
			if o != i {
				continue
			}
			owners = append(owners, i)
			if e.indexes[i] == nil && all == nil {
				all = identity(master.Len())
			}
		}
	}
	// The data clone, the cell codes with the scheduler over them, and
	// each premise owner's index with its premise column are independent
	// pure builds: with workers they run as concurrent tasks, the two
	// longest first. The codes, the scheduler and the columns read data,
	// whose values the clone copies, so they need not wait for it. A panic
	// in one propagates, as it would from the sequential build.
	type part struct {
		clone *relation.Relation
		codes cellCodes
		sched *scheduler
		ix    *mdIndex
		col   *premCol
	}
	build := func(k int) part {
		switch k {
		case 0:
			return part{clone: data.Clone()}
		case 1:
			codes := newCellCodes(e.rules, data)
			return part{codes: codes, sched: newScheduler(e.rules, data, codes)}
		}
		ri := owners[k-2]
		ix := e.indexes[ri]
		if ix == nil {
			ix = newMDIndex(e.rules[ri].MD, master, all)
		}
		if ix.buckets == nil {
			return part{ix: ix}
		}
		return part{ix: ix, col: newPremCol(ix, data)}
	}
	// No fault injector: a panic here is re-raised to the caller, outside
	// runAll's containment.
	parts, err := fanOut(context.Background(), nil, "new", e.width(data.Len()), len(owners)+2, build)
	if err != nil {
		panic(err)
	}
	e.data = parts[0].clone
	e.derived = derived{codes: parts[1].codes, sched: parts[1].sched, prem: make([]*premCol, len(e.rules))}
	for k, p := range parts[2:] {
		e.indexes[owners[k]], e.prem[owners[k]] = p.ix, p.col
	}
	e.adopt(owner)
	return e
}

// newBareEngine returns an engine with its options, rules, indexes (a copy
// of indexes, parallel to ordered, nil entries to build) and empty Result,
// for newEngine or a stream update to give data and derived state. An
// engine handed indexes skips the repair prefetch: it is a stream update's,
// which reruns the clean over a base one tuple away from the committed
// run's, whose lookups the shared memo already holds, so the scan would
// find next to nothing to spread, and the passes store what they miss.
func newBareEngine(ctx context.Context, master *relation.Relation, ordered []rule.Rule, indexes []*mdIndex, opts Options) *Engine {
	e := &Engine{
		master:   master,
		rules:    ordered,
		opts:     opts,
		indexes:  make([]*mdIndex, len(ordered)),
		workers:  opts.workerCount(),
		prefetch: indexes == nil,
		res:      &Result{Match: make(map[string]*MatchStats), Apply: make(map[string]*ApplyStats)},
		seen:     make(map[string]bool),
		ctx:      ctx,
		start:    time.Now(),
		fj:       opts.Fault,
	}
	copy(e.indexes, indexes)
	e.apply = make([]*ApplyStats, len(e.rules))
	for i, r := range e.rules {
		e.apply[i] = &ApplyStats{}
		e.res.Apply[r.Name()] = e.apply[i]
	}
	return e
}

// adopt wires the engine's data and derived state into the worklist, the
// premise columns write re-resolves and the matchers. Fresh matchers zero
// the statistics, so a stream update's matcher work counters come out
// identical to a cold build's. Each reads its premise owner's (owner,
// premiseOwners of the rules) index and column.
func (e *Engine) adopt(owner []int) {
	e.work = e.sched
	e.premAt = make([][]*premCol, e.data.Schema.Arity())
	e.cols = make([][]int32, len(e.rules))
	for _, c := range e.prem {
		if c != nil {
			for _, a := range c.ix.eqDataAttrs {
				e.premAt[a] = append(e.premAt[a], c)
			}
		}
	}
	e.matchers = make([]*matcher, len(e.rules))
	for i, o := range owner {
		if o < 0 || e.indexes[o] == nil {
			continue
		}
		e.indexes[i] = e.indexes[o]
		if c := e.prem[o]; c != nil {
			e.cols[i] = c.ids
		}
		e.indexes[i].bound(e.data.Len())
		e.matchers[i] = newMatcher(e.indexes[i], e.cols[i], true)
		e.res.Match[e.rules[i].Name()] = &e.matchers[i].stats
	}
}

// own gives tuple i, t, a copy of its Values, which a stream update's
// engine shares with the stream's base until its first write to the
// tuple. The copies are carved out of chunks of ownChunk tuples, so a run
// that writes hundreds of tuples makes a handful of allocations.
func (e *Engine) own(i int, t *relation.Tuple) {
	k := len(t.Values)
	if len(e.spare) < k {
		e.spare = make([]string, ownChunk*k)
	}
	v := e.spare[:k:k]
	e.spare = e.spare[k:]
	copy(v, t.Values)
	t.Values, e.owned[i] = v, true
}

// ownChunk is how many tuples' Values one allocation of Engine.own holds.
const ownChunk = 64

// noteWrite tells the worklist that cell (i, a) changed — its value or
// confidence, or with freeze only its mark — so the rules observing the
// change get re-enqueued. Both engine write paths, write and assert, funnel
// through it; that is what keeps the group indexes and worklists exact.
func (e *Engine) noteWrite(i, a int, freeze bool) {
	e.work.noteWrite(i, a, e.data.Tuples[i], freeze)
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
	e.repair()
	return e.finish()
}

// repair runs cRepair, eRepair and hRepair in turn until a pass changes
// nothing, a failure poisons the engine or a soft budget runs out.
func (e *Engine) repair() {
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
	// The checker reads the run's own state — its blocking indexes with the
	// candidate lists the repair passes memoized, and its premise columns —
	// and fans its per-rule passes across the engine's workers; the
	// rule-ordered report merge keeps the Report deterministic for any
	// worker count, so -certify output is identical whatever -workers says.
	ck := &Checker{rules: e.rules, master: e.master, indexes: e.indexes, workers: e.width(e.data.Len()), fj: e.fj}
	rep, err := ck.check(e.ctx, e.data, e.cols)
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

// minConfAt returns the fuzzy-logic confidence of a fix derived from the
// premise cells of t at attrs: their minimum (Section 3.1 uses min rather
// than product, following fuzzy set membership). Callers pass only the
// cells of exact premises, since similarity-tested cells contribute none;
// with none left the result is 1 (the fix is backed entirely by similarity
// to clean data). It is computed
// in place: it sits on the hottest path — every tuple visit of every rule —
// so it must not allocate.
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
// An assert that raises no confidence changes only the mark, which the
// worklist learns as a freeze.
func (e *Engine) assert(i, a int, conf float64) int {
	t := e.data.Tuples[i]
	if t.Marks[a] == relation.FixDeterministic {
		return 0
	}
	raise := conf > t.Conf[a]
	if raise {
		t.Conf[a] = conf
	}
	t.Marks[a] = relation.FixDeterministic
	e.res.Asserts++
	e.noteWrite(i, a, !raise)
	return 1
}

// write sets cell (i, a) to value v with confidence conf and the given
// mark, recording the Fix in the result: the one cell-write path of cRepair
// (FixDeterministic), eRepair (FixReliable) and hRepair (FixPossible), and
// so the one place the cell codes and the premise columns follow a value,
// and the one place a stream update's engine copies a tuple's Values,
// which it shares with the stream's base until its first write.
// The caller must have checked that the cell may be written and that v
// differs from the current value.
func (e *Engine) write(i, a int, v string, conf float64, mark relation.FixMark, ruleName string) int {
	t := e.data.Tuples[i]
	if e.owned != nil && !e.owned[i] {
		e.own(i, t)
	}
	e.res.Fixes = append(e.res.Fixes, Fix{
		Tuple: i, Attr: a, Attribute: e.data.Schema.Attrs[a],
		Old: t.Values[a], New: v, Conf: conf,
		Mark: mark, Rule: ruleName,
	})
	t.Set(a, v, conf, mark)
	if col := e.codes[a]; col != nil {
		col.code[i] = col.intern(v)
	}
	for _, c := range e.premAt[a] {
		c.set(i, t)
	}
	e.noteWrite(i, a, false)
	return 1
}

package clean

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/relation"
)

// This file implements the parallel applier layer on top of the delta-driven
// scheduler: a bounded worker pool that fans one rule's worklist out as
// shards, computes *proposed* fixes concurrently, and commits the proposals
// through a single deterministic merge step, so the result stays
// fix-for-fix identical to the sequential engine.
//
// The design splits every applier into propose and commit:
//
//   - Propose runs concurrently. Each worker owns a disjoint share of the
//     rule's work items (tuples for per-tuple rules, LHS-equal groups for
//     variable CFDs) and runs the ordinary applier decision logic against
//     the live relation. Writes mutate the owned cells directly — safe,
//     because one rule's items never read each other's cells (per-tuple
//     rules read only their own tuple; groups of one rule partition the
//     relation) — and are recorded as ops carrying the cell's pre-write
//     state. Shared engine state (Fixes, Asserts, Conflicts, the
//     scheduler's worklists and group indexes, hRepair's budget) is never
//     touched during propose.
//
//   - Commit runs on one goroutine after the barrier, merging proposals in
//     worklist order (ascending tuple id / first group member — exactly the
//     order the sequential engine visits). For each item it first rewinds
//     the propose-time cell writes, then replays the ops through the
//     engine's own assert/fix/hfix/conflictf path, so every piece of
//     bookkeeping — fix records, scheduler re-enqueueing with the
//     in-flight-rule suppression, conflict dedup — is produced by the same
//     code the sequential engine runs, observing the same intermediate cell
//     states.
//
// Rules still commit one after another in rule.Order: a later rule's
// propose sees every earlier rule's writes of the same round, which is what
// keeps Rounds and the fix interleaving byte-identical to the sequential
// engine. The parallelism is within a rule, where the sequential visit
// order provably cannot matter.
//
// The engine routes rule passes through this layer only when
// Options.SeqCutoff < 0 forces it (see poolPass): commit replays every
// write serially, so the pool only pays where deciding an item costs far
// more than writing it, and with MD lookups memoized no rule does. By
// default the pool's workers run the engine's pure work instead — index
// construction, memo prefetch, eRepair seeding, certification — through
// fanOut.

// opKind enumerates the effects a propose pass records.
type opKind uint8

const (
	opAssert opKind = iota
	opFix
	opHFix
	opSpend
	opConflict
)

// op is one effect proposed by a worker: enough to rewind the propose-time
// cell mutation and to replay the effect through the engine's own write
// path at commit.
type op struct {
	kind opKind
	i, a int     // target cell (unused for opConflict)
	val  string  // value written (opFix, opHFix)
	conf float64 // confidence attached (opAssert, opFix, opHFix)
	rule string  // rule name recorded on the fix
	msg  string  // rendered conflict text (opConflict)

	// Cell (i, a) before this op, captured at propose time. Commit rewinds
	// through these so the replay sees exactly the intermediate states the
	// sequential engine would.
	oldVal  string
	oldConf float64
	oldMark relation.FixMark
}

// proposal collects the ops one work item produced during propose, in
// decision order. Most items propose nothing and stay allocation-free.
type proposal struct {
	ops []op
}

// applier is the execution context of the per-tuple and per-group rule
// appliers: the matcher set to probe and the sink decisions go to. The
// engine's canonical applier (Engine.ap) commits effects immediately; each
// pool worker carries one with forked matchers, private work counters, and
// a proposal buffer switched per item.
type applier struct {
	e        *Engine
	matchers []*matcher  // the engine's own, or per-worker forks
	buf      *proposal   // nil: direct-commit mode
	scratch  *ApplyStats // non-nil on workers: counters merged after the barrier
}

// stat returns where rule ri's work counters go: the engine's per-rule
// counter in direct mode, the worker's scratch in propose mode.
func (ap *applier) stat(ri int) *ApplyStats {
	if ap.scratch != nil {
		return ap.scratch
	}
	return ap.e.apply[ri]
}

// assert freezes cell (i, a) (see Engine.assert). In propose mode the
// mutation lands on the live cell — the item owns it — and is recorded for
// the commit replay.
func (ap *applier) assert(i, a int, conf float64) int {
	if ap.buf == nil {
		return ap.e.assert(i, a, conf)
	}
	t := ap.e.data.Tuples[i]
	if t.Marks[a] == relation.FixDeterministic {
		return 0
	}
	ap.record(op{kind: opAssert, i: i, a: a, conf: conf}, t)
	if conf > t.Conf[a] {
		t.Conf[a] = conf
	}
	t.Marks[a] = relation.FixDeterministic
	return 1
}

// fix writes a deterministic fix to cell (i, a) (see Engine.fix).
func (ap *applier) fix(i, a int, v string, conf float64, ruleName string) int {
	if ap.buf == nil {
		return ap.e.fix(i, a, v, conf, ruleName)
	}
	t := ap.e.data.Tuples[i]
	ap.record(op{kind: opFix, i: i, a: a, val: v, conf: conf, rule: ruleName}, t)
	t.Set(a, v, conf, relation.FixDeterministic)
	return 1
}

// hfix writes a possible fix to cell (i, a) (see Engine.hfix).
func (ap *applier) hfix(i, a int, v string, conf float64, ruleName string) int {
	if ap.buf == nil {
		return ap.e.hfix(i, a, v, conf, ruleName)
	}
	t := ap.e.data.Tuples[i]
	ap.record(op{kind: opHFix, i: i, a: a, val: v, conf: conf, rule: ruleName}, t)
	t.Set(a, v, conf, relation.FixPossible)
	return 1
}

func (ap *applier) record(o op, t *relation.Tuple) {
	o.oldVal, o.oldConf, o.oldMark = t.Values[o.a], t.Conf[o.a], t.Marks[o.a]
	ap.buf.ops = append(ap.buf.ops, o)
}

// conflictf records a refused fix (see Engine.conflictf). Propose renders
// the message immediately — its inputs are the item's own cells — and
// commit dedups in merge order, so the Conflicts list is deterministic.
func (ap *applier) conflictf(format string, args ...any) {
	if ap.buf == nil {
		ap.e.conflictf(format, args...)
		return
	}
	ap.buf.ops = append(ap.buf.ops, op{kind: opConflict, msg: fmt.Sprintf(format, args...)})
}

// spend consumes one unit of cell (i, a)'s hRepair change budget. Propose
// only reads the shared budget map — safe, since commit defers all budget
// writes past the barrier and no two items of one rule touch the same cell
// — and records the decrement for the commit replay.
func (ap *applier) spend(i, a int) bool {
	if ap.buf == nil {
		return ap.e.spend(i, a)
	}
	if ap.e.budgetLeft(i, a) == 0 {
		return false
	}
	ap.buf.ops = append(ap.buf.ops, op{kind: opSpend, i: i, a: a})
	return true
}

// rewind restores the cells a proposal wrote to their pre-propose state, in
// reverse op order, so the commit replay starts from the state the
// sequential engine would see.
func (e *Engine) rewind(ops []op) {
	for k := len(ops) - 1; k >= 0; k-- {
		o := ops[k]
		switch o.kind {
		case opAssert, opFix, opHFix:
			t := e.data.Tuples[o.i]
			t.Values[o.a], t.Conf[o.a], t.Marks[o.a] = o.oldVal, o.oldConf, o.oldMark
		}
	}
}

// replay commits one recorded op through the engine's own write path — the
// code the sequential engine runs — and returns its progress contribution.
func (e *Engine) replay(o op) int {
	switch o.kind {
	case opAssert:
		return e.assert(o.i, o.a, o.conf)
	case opFix:
		return e.fix(o.i, o.a, o.val, o.conf, o.rule)
	case opHFix:
		return e.hfix(o.i, o.a, o.val, o.conf, o.rule)
	case opSpend:
		e.spend(o.i, o.a)
	case opConflict:
		e.conflictf("%s", o.msg)
	}
	return 0
}

// pool is the bounded worker pool of the parallel applier layer: one
// applier per worker, each with forked matchers (shared immutable indexes,
// private scratch and statistics).
type pool struct {
	workers []*applier
	visits  []int64 // per-worker propose tuple visits, reported by -bench
}

func newPool(e *Engine, n int) *pool {
	p := &pool{visits: make([]int64, n)}
	for w := 0; w < n; w++ {
		forks := make([]*matcher, len(e.matchers))
		for ri, x := range e.matchers {
			if x != nil {
				forks[ri] = x.fork()
			}
		}
		p.workers = append(p.workers, &applier{e: e, matchers: forks, scratch: &ApplyStats{}})
	}
	return p
}

// shardQueue is one worker's remaining range of a rule's item index space.
// The owner claims small batches off the front; idle workers steal half of
// the remainder off the back. Both sides go through one mutex per queue —
// claims and steals are rare relative to item processing, and a mutex makes
// the lo/hi crossing race of lock-free deques a non-problem. Which indexes
// end up processed by which worker is scheduling-dependent, but the
// index-ordered commit merge makes that invisible in every output.
type shardQueue struct {
	mu     sync.Mutex
	lo, hi int // remaining items [lo, hi)
}

// claim takes up to n items off the front of the queue (owner side).
func (q *shardQueue) claim(n int) (lo, hi int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lo >= q.hi {
		return 0, 0, false
	}
	lo = q.lo
	hi = lo + n
	if hi > q.hi {
		hi = q.hi
	}
	q.lo = hi
	return lo, hi, true
}

// steal takes the back half of the remaining range (thief side).
func (q *shardQueue) steal() (lo, hi int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.hi - q.lo
	if n <= 0 {
		return 0, 0, false
	}
	take := (n + 1) / 2
	lo, hi = q.hi-take, q.hi
	q.hi = lo
	return lo, hi, true
}

// put deposits a stolen range into the (empty) queue, making its remainder
// stealable again. Only the owner deposits, and only after its own claim
// failed, so the queue is empty when put runs.
func (q *shardQueue) put(lo, hi int) {
	q.mu.Lock()
	q.lo, q.hi = lo, hi
	q.mu.Unlock()
}

// stealInto moves half of some other worker's remaining range into worker
// w's own queue, scanning victims round-robin from w+1. It reports whether
// any work was found; the caller then claims from its own queue as usual —
// which can fail if another thief raced it there, in which case it simply
// steals again. Work only ever shrinks (nothing enqueues after the fan-out
// starts), so a full scan finding every queue empty is a sound exit.
func stealInto(queues []shardQueue, w int) bool {
	for k := 1; k < len(queues); k++ {
		if lo, hi, ok := queues[(w+k)%len(queues)].steal(); ok {
			queues[w].put(lo, hi)
			return true
		}
	}
	return false
}

// runParallel fans one rule's work items out to the pool and commits the
// proposals in item order. items must already be in sequential visit order
// (ascending tuple id / first group member), and item ownership must be
// disjoint: no two items may read or write the same data tuple — which
// holds for every rule kind, since per-tuple appliers read only their own
// tuple (plus immutable master data) and one rule's groups partition the
// relation. activeTuple reports the tuple to bracket with the scheduler's
// in-flight-rule suppression during commit, mirroring the sequential
// setActive calls (per-tuple rules only).
func runParallel[T any](p *pool, e *Engine, phase, ri int, items []T,
	activeTuple func(T) (int, bool), fn func(*applier, T) int) int {

	props := make([]proposal, len(items))
	// Each worker starts with a contiguous shard of the ordered worklist
	// (locality) and steals from its neighbors once its own shard drains,
	// so one expensive item — a huge variable-CFD group, a full-scan MD
	// probe — strands at most the few items of the claim batch it arrived
	// in, never a whole chunk. The merge below is index-ordered, so neither
	// the initial partition nor the steal schedule ever shows in the output.
	n := len(p.workers)
	if n > len(items) {
		n = len(items)
	}
	queues := make([]shardQueue, n)
	for w := range queues {
		queues[w].lo = w * len(items) / n
		queues[w].hi = (w + 1) * len(items) / n
	}
	// Claim batches trade mutex traffic against stranding: an expensive
	// item blocks only its claimed batch-mates, so batches stay small, and
	// shrink to single items on short worklists where items are big.
	grain := len(items) / (n * 16)
	if grain < 1 {
		grain = 1
	}
	if grain > 8 {
		grain = 8
	}
	// Failure containment: each item runs under its own recover, so one
	// panicking rule application records a structured *WorkerError in its
	// item-indexed slot and trips the abort flag instead of crashing the
	// process. Peers poll the flag (and the run context) between claim
	// batches and drain out; after the barrier the lowest-index recorded
	// failure wins, which is deterministic for a deterministic fault source.
	// Panics outside any item — claim/steal bookkeeping, the scheduling
	// fault hook — land in a per-worker slot instead.
	fails := make([]*WorkerError, len(items))
	schedFails := make([]*WorkerError, n)
	var aborted atomic.Bool
	ruleName := e.rules[ri].Name()
	runItem := func(w int, ap *applier, idx int) {
		defer func() {
			ap.buf = nil
			if r := recover(); r != nil {
				fails[idx] = newWorkerError(r, phaseName(phase), ruleName, w, idx)
				aborted.Store(true)
			}
		}()
		ap.buf = &props[idx]
		e.fj.At(fault.SiteApply, ri, idx)
		fn(ap, items[idx])
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int, ap *applier) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					schedFails[w] = newWorkerError(r, phaseName(phase), ruleName, w, -1)
					aborted.Store(true)
				}
			}()
			for {
				if aborted.Load() || e.ctx.Err() != nil {
					return
				}
				lo, hi, ok := queues[w].claim(grain)
				if !ok {
					if !stealInto(queues, w) {
						return
					}
					continue
				}
				e.fj.At(fault.SiteSched, ri, lo)
				for idx := lo; idx < hi; idx++ {
					if aborted.Load() {
						return
					}
					runItem(w, ap, idx)
				}
			}
		}(w, p.workers[w])
	}
	wg.Wait()

	// Merge the deterministic work counters: order-independent sums into
	// the same per-rule and per-MD counters the sequential engine bumps.
	// This runs even on a failed fan-out so the worker scratch is zeroed
	// for whoever runs the pool next.
	for w, ap := range p.workers[:n] {
		p.visits[w] += int64(ap.scratch.Visits())
		e.apply[ri].add(ap.scratch)
		*ap.scratch = ApplyStats{}
		for rj, x := range e.matchers {
			if f := ap.matchers[rj]; f != nil && x != nil {
				x.stats.add(&f.stats)
				f.stats = MatchStats{MasterSize: x.stats.MasterSize}
			}
		}
	}

	// Failed or canceled fan-out: the round is a transaction, so rewind
	// every proposal's propose-time cell writes — committing a prefix is
	// exactly the inconsistency the commit boundary exists to rule out —
	// and poison the engine with the failure. Items own disjoint cells, so
	// the per-item reverse-order rewinds compose in any item order.
	if aborted.Load() || e.interrupted() {
		var werr *WorkerError
		for _, f := range fails {
			if f != nil {
				werr = f
				break
			}
		}
		if werr == nil {
			for _, f := range schedFails {
				if f != nil {
					werr = f
					break
				}
			}
		}
		if werr != nil && e.fail == nil {
			e.fail = werr
		}
		e.interrupted() // no worker error: record the context cancellation
		for idx := range props {
			e.rewind(props[idx].ops)
		}
		return 0
	}

	// Commit: rewind each item's propose-time writes and replay its ops
	// through the engine's own write path, in worklist order.
	progress := 0
	for idx := range props {
		ops := props[idx].ops
		if len(ops) == 0 {
			continue
		}
		if i, ok := activeTuple(items[idx]); ok {
			e.setActive(phase, ri, i)
		}
		e.rewind(ops)
		for _, o := range ops {
			progress += e.replay(o)
		}
	}
	e.clearActive()
	return progress
}

// fanOut runs fn(task) for every task in [0, tasks) across up to workers
// goroutines pulling task indexes from an atomic cursor. It is the
// read-only sibling of runParallel for passes with no proposals to merge —
// the Checker's per-rule certification fan-out and eRepair's seeding pass —
// where tasks write only their own task-indexed result slot and the caller
// merges in task order afterwards, so the outcome is identical for any
// worker count. Each task runs under its own recover; on a panic or a
// context cancellation the remaining tasks are skipped and the error —
// the lowest-index *WorkerError, else the typed cancellation — is returned.
// The caller must discard the partially filled result slots on error.
func fanOut(ctx context.Context, phase string, workers, tasks int, fn func(task int)) error {
	if workers > tasks {
		workers = tasks
	}
	fails := make([]*WorkerError, tasks)
	var aborted atomic.Bool
	runTask := func(shard, task int) {
		defer func() {
			if r := recover(); r != nil {
				fails[task] = newWorkerError(r, phase, "", shard, task)
				aborted.Store(true)
			}
		}()
		fn(task)
	}
	if workers <= 1 {
		for task := 0; task < tasks && !aborted.Load() && ctx.Err() == nil; task++ {
			runTask(-1, task)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					if aborted.Load() || ctx.Err() != nil {
						return
					}
					task := int(cursor.Add(1)) - 1
					if task >= tasks {
						return
					}
					runTask(w, task)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, f := range fails {
		if f != nil {
			return f
		}
	}
	if err := ctx.Err(); err != nil {
		return ctxErr(err)
	}
	return nil
}

// applyTuples runs one per-tuple rule over the given tuple ids (ascending).
// An MD rule's pass first has its lookups prefetched across the pool when
// the pool is on and the pass is over the fan-out cutoff: the distinct
// values the memo lacks are looked up in parallel, and each tuple then
// costs one memo hit. The pass itself runs inline unless SeqCutoff < 0
// forces the pool (see poolPass). An inline stream update skips the
// prefetch: it reruns the clean over a base one tuple away from the
// committed run's, whose lookups the inherited memo already holds, so the
// scan would find next to nothing to spread, and the inline pass stores
// what it misses. A pooled pass always prefetches: its forks store nothing.
func (e *Engine) applyTuples(phase, ri int, ids []int, fn func(*applier, int) int) int {
	pooled := e.poolPass(len(ids))
	update := e.stream != nil && e.stream.protos != nil
	if x := e.matchers[ri]; x != nil && (pooled || !update) && !e.inline(len(ids)) {
		if err := x.prefetch(e.ctx, len(e.pool.workers), e.data, ids, false, e.opts.TopL); err != nil && e.fail == nil {
			e.fail = err
		}
		if e.interrupted() {
			return 0
		}
	}
	if !pooled {
		progress := 0
		for ii, i := range ids {
			// Same (rule, worklist-index) fault coordinates as the pool
			// path, so a seed fires the same faults inline and sharded.
			e.fj.At(fault.SiteApply, ri, ii)
			e.setActive(phase, ri, i)
			progress += fn(e.ap, i)
		}
		e.clearActive()
		return progress
	}
	return runParallel(e.pool, e, phase, ri, ids,
		func(i int) (int, bool) { return i, true }, fn)
}

// applyGroups runs one variable-CFD rule over the given group snapshots
// (ordered by first member), inline or, when forced, through the pool; the
// work estimate is the total member count, since group applier cost scales
// with members visited, not group count. Group appliers run without the
// scheduler's in-flight-tuple suppression, exactly like the sequential
// loops.
func (e *Engine) applyGroups(phase, ri int, groups [][]int, fn func(*applier, []int) int) int {
	work := 0
	for _, g := range groups {
		work += len(g)
	}
	if !e.poolPass(work) {
		progress := 0
		for gi, g := range groups {
			e.fj.At(fault.SiteApply, ri, gi)
			progress += fn(e.ap, g)
		}
		return progress
	}
	return runParallel(e.pool, e, phase, ri, groups,
		func([]int) (int, bool) { return 0, false }, fn)
}

// allTupleIDs returns the cached identity worklist 0..Len-1 that full-visit
// seeding rounds iterate.
func (e *Engine) allTupleIDs() []int {
	if e.allIDs == nil {
		e.allIDs = make([]int, e.data.Len())
		for i := range e.allIDs {
			e.allIDs[i] = i
		}
	}
	return e.allIDs
}

// add accumulates o's counters into s.
func (s *ApplyStats) add(o *ApplyStats) {
	s.CTuples += o.CTuples
	s.CGroups += o.CGroups
	s.ETuples += o.ETuples
	s.HTuples += o.HTuples
}

// add accumulates o's work counters into s. MasterSize is a property of the
// master relation, not a counter, and is left alone.
func (s *MatchStats) add(o *MatchStats) {
	s.Lookups += o.Lookups
	s.Candidates += o.Candidates
	s.Verified += o.Verified
	s.FullScans += o.FullScans
}

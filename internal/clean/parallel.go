package clean

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// This file holds the engine's one concurrency primitive, fanOut, and the
// inline loops that run a rule pass. Rule passes run on the engine
// goroutine, one item after another in worklist order (ascending tuple id /
// first group member), and every write goes straight through the engine's
// write path (assert/fix/hfix, conflictf, spend), so the scheduler, the fix
// trace and hRepair's budget see one order of events. fanOut runs the
// engine's pure work concurrently: index builds, an MD pass's lookup
// prefetch, eRepair's seeding and certification.

// fanOut runs fn(task) for every task in [0, tasks) across up to workers
// goroutines pulling task indexes from an atomic cursor. Tasks write only
// their own task-indexed result slot and the caller merges in task order
// afterwards, so the outcome is identical for any worker count. Each task
// runs under its own recover; on a panic or a context cancellation the
// remaining tasks are skipped and the error — the lowest-index
// *WorkerError, else the typed cancellation — is returned. The caller must
// discard the partially filled result slots on error. fj's SiteSched hook
// fires once per task a worker goroutine claims, inside the task's recover.
func fanOut(ctx context.Context, fj *fault.Injector, phase string, workers, tasks int, fn func(task int)) error {
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
		if shard >= 0 {
			fj.At(fault.SiteSched, 0, task)
		}
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
// An MD rule's pass over the fan-out cutoff first has its lookups
// prefetched: the distinct values the memo lacks are looked up across the
// workers, and each tuple then costs one memo hit. A stream update skips
// the prefetch: it reruns the clean over a base one tuple away from the
// committed run's, whose lookups the inherited memo already holds, so the
// scan would find next to nothing to spread, and the pass stores what it
// misses.
func (e *Engine) applyTuples(phase, ri int, ids []int, fn func(i int) int) (progress int) {
	update := e.stream != nil && e.stream.protos != nil
	if x := e.matchers[ri]; x != nil && !update && !e.inline(len(ids)) {
		if err := x.prefetch(e.ctx, e.fj, e.workers, e.data, ids, false, e.opts.TopL); err != nil && e.fail == nil {
			e.fail = err
		}
		if e.interrupted() {
			return 0
		}
	}
	item := -1
	defer e.contain(phase, ri, &item)
	for ii, i := range ids {
		item = ii
		e.fj.At(fault.SiteApply, ri, ii)
		e.setActive(phase, ri, i)
		progress += fn(i)
	}
	e.clearActive()
	return progress
}

// applyGroups runs one variable-CFD rule over the given group snapshots
// (ordered by first member). Group appliers run without the scheduler's
// in-flight-tuple suppression.
func (e *Engine) applyGroups(phase, ri int, groups [][]int, fn func(members []int) int) (progress int) {
	item := -1
	defer e.contain(phase, ri, &item)
	for gi, g := range groups {
		item = gi
		e.fj.At(fault.SiteApply, ri, gi)
		progress += fn(g)
	}
	return progress
}

// contain is a rule pass's deferred recover: it re-raises a panic as a
// *WorkerError naming the phase, the rule and the worklist index of the
// item being applied, for runAll to return. An existing *WorkerError passes
// through unchanged.
func (e *Engine) contain(phase, ri int, item *int) {
	if r := recover(); r != nil {
		if _, ok := r.(*WorkerError); ok {
			panic(r)
		}
		panic(newWorkerError(r, phaseName(phase), e.rules[ri].Name(), -1, *item))
	}
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

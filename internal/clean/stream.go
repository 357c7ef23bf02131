package clean

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/rule"
)

// This file implements the streaming update layer: a certified-clean
// instance kept live under external single-tuple writes (ROADMAP (B),
// "Answering FO+MOD queries under updates" in PAPERS.md frames the goal).
//
// The semantics are rebase-and-rerun, not patch-the-cleaned-state. A
// streaming engine keeps the raw base instance — its original input plus
// every accepted update — and each Upsert/Delete builds a candidate base
// with the write applied, runs a fresh sub-engine over it, and commits the
// candidate and the sub-engine's Result only on success. The acceptance bar
// forces this: the repo's contract is that after any update sequence the
// engine's cell state, Fixes, counters and Report are byte-identical to a
// from-scratch Run on the final base, and a delta repair of the *cleaned*
// state cannot meet it. Counterexample: a group {t1, t2} where cRepair
// froze t2[A] as derived from t1[A]; an upsert overwriting t1[A] leaves
// the live state with a frozen t2[A] justified by evidence that no longer
// exists, while the from-scratch run re-derives t2[A] from the new value —
// same fixpoint algorithm, different result. Re-running from base makes
// divergence structurally impossible (every committed Result IS a
// from-scratch run's output), including for degraded runs: a
// MaxFixes-degraded update matches the from-scratch oracle because the
// oracle degrades identically.
//
// What carries over between updates lives where it cannot bend the
// output. The MD blocking indexes (equality buckets, suffix array) are
// built once over master by the initial run and handed to every later
// sub-run instead of rebuilt; each sub-run probes them through fresh
// matchers with zeroed statistics, so counters still come out identical
// to a cold build. They also share the indexes' lookup memo, so an update
// looks up only the values the stream has never seen. And the stream keeps
// the base's derived state (Engine.derived: cell codes, variable-CFD group
// indexes, premise columns, identity listing), derived once by the initial
// run's newEngine. An update copies it and patches the one replaced tuple
// into the copy (interns its values, moves it between groups, re-resolves
// its premise columns), which its sub-engine adopts with no build fan-out;
// only the commit patches the kept state itself, the same way, so a failed
// update cannot touch it. A sub-engine's data shares every tuple's Values
// with the candidate base and owns its Conf and Marks: Engine.write copies
// a tuple's Values on its first write, so the clone costs the flat Conf
// and Marks arrays, not the strings. A Result.Data of a stream therefore
// shares unwritten Values with the base and must be treated as read-only.
// Kept dictionaries only grow, so code numbers differ from a from-scratch
// run's, which no output reads (see cellCodes); once dead codes or groups
// outnumber live ones, the commit re-derives the kept state from the new
// base.
//
// Deletes are tombstones: every cell of the tuple becomes Null with zero
// confidence and no fix mark, and the id is recorded in deleted. A null
// value matches no CFD pattern and satisfies no MD premise clause, so a
// tombstone is inert for repair and certification alike — and since the
// oracle Run sees the same tombstoned base, the equivalence is symmetric.
// Tombstoning (rather than splicing the tuple out) keeps every positional
// id stable, which the scheduler's dirty bitsets and group indexes assume.
//
// The base starts as one Clone of the input, whose tuples share one slab
// (relation.Relation.Clone); an update replaces a tuple with a separately
// allocated one, so the replaced tuple's slot stays pinned with the slab
// while any original tuple lives. The dead space is bounded by one copy of
// the base.
//
// Failure contract (docs/robustness.md extended to updates): a failed
// update — invalid input, cancellation, injected fault, worker panic —
// returns a typed error with the engine bit-unchanged: base, tombstones,
// kept state and Result all stay exactly as the last accepted update left
// them. This holds by construction: validation precedes the candidate, the
// candidate shares tuples with base but never writes them, the sub-engine
// copies a Values slice before writing it, the patch writes only a copy of
// the kept state, and nothing of the stream is written before the sub-run
// has succeeded.

// stream is the committed state of a streaming engine, held by the shell
// engine NewStream returns. Sub-runs get its indexes and a copy of its
// kept state, and only commit writes it, after a sub-run has succeeded.
type stream struct {
	// base is the raw input plus every committed update: the instance a
	// from-scratch run would be handed. Its tuples are never written — a
	// candidate base copies the tuple-pointer slice and swaps in one fresh
	// tuple — so a failed candidate leaves base untouched.
	base    *relation.Relation
	deleted map[int]bool // tombstoned tuple ids
	// indexes holds the master blocking indexes built by the initial run
	// (parallel to the ordered rules), which every later sub-run reuses
	// instead of rebuilding, with the lookup memo those sub-runs keep
	// filling.
	indexes []*mdIndex
	// kept is base's derived state, as newEngine derives it up to code
	// and group numbering. An update patches a copy for its engine; only
	// the commit patches kept itself, the same way, or re-derives it.
	kept derived
}

// NewStream builds a streaming engine: it runs the full pipeline over data
// once (exactly as Run would) and returns an engine whose Upsert and
// Delete keep the cleaned, certified state live under external writes.
// Result returns the latest certified state. The initial run's failure
// modes are RunContext's.
func NewStream(data, master *relation.Relation, rules []rule.Rule, opts Options) (*Engine, error) {
	return NewStreamContext(context.Background(), data, master, rules, opts)
}

// NewStreamContext is NewStream with a context attached to the initial
// run. Later updates do not reuse ctx; each UpsertContext/DeleteContext
// call carries its own.
//
// The returned shell holds only the options, the ordered rules, master,
// the stream state and the current Result: the initial clean runs on a
// batch engine over a clone of data, whose indexes every later update
// reuses and whose derived state, copied before the run writes it, every
// later update patches. The phase methods (CRepair, ERepair, HRepair,
// Finish) belong to batch engines and are not for use on the shell.
func NewStreamContext(ctx context.Context, data, master *relation.Relation, rules []rule.Rule, opts Options) (*Engine, error) {
	e := &Engine{
		master: master,
		rules:  rule.Order(rules),
		opts:   opts,
	}
	base := data.Clone()
	s := newEngine(ctx, base, master, e.rules, nil, opts)
	kept := s.derived.copy()
	res, err := s.runAll()
	if err != nil {
		return nil, err
	}
	e.stream = &stream{base: base, deleted: make(map[int]bool), indexes: s.indexes, kept: kept}
	e.res = res
	return e, nil
}

// Result returns the engine's current certified state: the result of the
// initial run or of the last accepted update — by construction identical
// to what RunContext would return for the current base instance.
func (e *Engine) Result() *Result { return e.res }

// Deleted reports whether tuple id is currently tombstoned. A batch engine
// has no tombstones.
func (e *Engine) Deleted(id int) bool { return e.stream != nil && e.stream.deleted[id] }

// Upsert applies one external write to the streaming engine: it overwrites
// tuple id (0 <= id < Len) or appends a new tuple (id == Len) with the
// given values and per-cell confidences (nil conf means zero confidence
// everywhere), re-cleans, re-certifies, and returns the new Result. An
// upsert to a tombstoned id resurrects it. On error — ErrNotStreaming,
// ErrBadUpdate, or any run failure — the engine is left bit-unchanged.
func (e *Engine) Upsert(id int, values []string, conf []float64) (*Result, error) {
	return e.UpsertContext(context.Background(), id, values, conf)
}

// UpsertContext is Upsert under a context governing this update's re-run.
func (e *Engine) UpsertContext(ctx context.Context, id int, values []string, conf []float64) (*Result, error) {
	st := e.stream
	if st == nil {
		return nil, ErrNotStreaming
	}
	arity := st.base.Schema.Arity()
	if len(values) != arity {
		return nil, fmt.Errorf("upsert t%d: %d values for arity %d: %w", id, len(values), arity, ErrBadUpdate)
	}
	if conf != nil && len(conf) != arity {
		return nil, fmt.Errorf("upsert t%d: %d confidences for arity %d: %w", id, len(conf), arity, ErrBadUpdate)
	}
	for a, c := range conf {
		if !(c >= 0 && c <= 1) { // also rejects NaN
			return nil, fmt.Errorf("upsert t%d: confidence %v for %s outside [0,1]: %w",
				id, c, st.base.Schema.Attrs[a], ErrBadUpdate)
		}
	}
	if id < 0 || id > st.base.Len() {
		return nil, fmt.Errorf("upsert t%d: id outside [0, %d]: %w", id, st.base.Len(), ErrBadUpdate)
	}
	res, err := e.rebase(ctx, id, values, conf)
	if err != nil {
		return nil, err
	}
	delete(st.deleted, id)
	return res, nil
}

// Delete tombstones tuple id: every cell becomes Null with zero confidence,
// making the tuple invisible to every rule, and the id is remembered so a
// second delete fails. Positional ids of other tuples are unaffected. The
// failure contract is Upsert's.
func (e *Engine) Delete(id int) (*Result, error) {
	return e.DeleteContext(context.Background(), id)
}

// DeleteContext is Delete under a context governing this update's re-run.
func (e *Engine) DeleteContext(ctx context.Context, id int) (*Result, error) {
	st := e.stream
	if st == nil {
		return nil, ErrNotStreaming
	}
	if id < 0 || id >= st.base.Len() {
		return nil, fmt.Errorf("delete t%d: id outside [0, %d): %w", id, st.base.Len(), ErrBadUpdate)
	}
	if st.deleted[id] {
		return nil, fmt.Errorf("delete t%d: already deleted: %w", id, ErrBadUpdate)
	}
	nulls := make([]string, st.base.Schema.Arity())
	for a := range nulls {
		nulls[a] = relation.Null
	}
	res, err := e.rebase(ctx, id, nulls, nil)
	if err != nil {
		return nil, err
	}
	st.deleted[id] = true
	return res, nil
}

// with returns the candidate base of an update: base with tuple id
// replaced by a fresh unmarked tuple holding values and conf (nil conf
// means zero confidence everywhere), appended when id == Len. Only the
// tuple-pointer slice is copied; the committed base is not touched.
func (st *stream) with(id int, values []string, conf []float64) *relation.Relation {
	tuples := make([]*relation.Tuple, st.base.Len(), st.base.Len()+1)
	copy(tuples, st.base.Tuples)
	t := relation.NewTuple(id, values)
	copy(t.Conf, conf)
	if id == len(tuples) {
		tuples = append(tuples, t)
	} else {
		t.ID = tuples[id].ID
		tuples[id] = t
	}
	return &relation.Relation{Schema: st.base.Schema, Tuples: tuples}
}

// rebase runs a fresh sub-engine over the candidate base with tuple id
// replaced by values and conf and, on success, commits the candidate base
// and its Result to the stream and patches the replaced tuple into the
// kept state. The sub-engine inherits the shell's options and ordered
// rules and reuses the stream's blocking indexes and lookup memo instead
// of rebuilding them.
func (e *Engine) rebase(ctx context.Context, id int, values []string, conf []float64) (*Result, error) {
	st := e.stream
	base := st.with(id, values, conf)
	s, err := e.subEngine(ctx, base, id)
	if err != nil {
		return nil, err
	}
	res, err := s.runAll()
	if err != nil {
		return nil, err
	}
	st.base, e.res = base, res
	st.kept.patch(nil, id, base.Tuples[id])
	if st.kept.sparse() {
		st.kept = newEngine(context.Background(), base, e.master, e.rules, st.indexes, e.opts).derived
	}
	return res, nil
}

// subEngine builds the engine of an update whose candidate base differs
// from the committed one in tuple id alone: it copies the kept state and
// patches tuple id into the copy, which the engine adopts with no build
// fan-out. The engine's data shares base's Values (see Engine.write). A
// panic in these steps, where the fault injector's SiteRebase fires,
// returns as a *WorkerError of phase "rebase"; the kept state is not
// written either way, and the commit patches it the same way only once the
// run has succeeded.
func (e *Engine) subEngine(ctx context.Context, base *relation.Relation, id int) (s *Engine, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, newWorkerError(r, "rebase", "", -1, -1)
		}
	}()
	fj := e.opts.Fault
	fj.At(fault.SiteRebase, 0, 0)
	dv := e.stream.kept.copy()
	dv.patch(fj, id, base.Tuples[id])
	dv.sched.start()
	fj.At(fault.SiteRebase, 4, 0)
	s = newBareEngine(ctx, e.master, e.rules, e.stream.indexes, e.opts)
	s.data, s.owned, s.derived = base.CloneSharingValues(), make([]bool, base.Len()), dv
	s.adopt(premiseOwners(e.rules))
	return s, nil
}

// copy returns a copy of d the caller may write without touching d.
func (d derived) copy() derived {
	codes := d.codes.copy()
	out := derived{codes: codes, sched: d.sched.fork(codes), prem: make([]*premCol, len(d.prem))}
	for ri, c := range d.prem {
		if c != nil {
			out.prem[ri] = &premCol{ix: c.ix, ids: slices.Clone(c.ids)}
		}
	}
	return out
}

// patch re-derives tuple i, now t, in d: it codes t's values, moves the
// tuple between groups and re-resolves it in every premise column,
// appending it when i is one past the last tuple. fj's SiteRebase fires
// before each of the three steps; the commit passes nil.
func (d derived) patch(fj *fault.Injector, i int, t *relation.Tuple) {
	fj.At(fault.SiteRebase, 1, 0)
	for a, col := range d.codes {
		if col != nil {
			col.set(i, t.Values[a])
		}
	}
	fj.At(fault.SiteRebase, 2, 0)
	d.sched.patch(i, t)
	fj.At(fault.SiteRebase, 3, 0)
	for _, c := range d.prem {
		if c == nil {
			continue
		}
		if i == len(c.ids) {
			c.ids = append(c.ids, noBucket)
		}
		c.set(i, t)
	}
}

// sparse reports whether a dictionary of d — a column's codes or a wider
// LHS's group symbols — names more dead entries than live ones.
func (d derived) sparse() bool {
	for _, col := range d.codes {
		if col != nil && col.sparse() {
			return true
		}
	}
	for _, gi := range d.sched.gidx {
		if gi != nil && gi.sparse() {
			return true
		}
	}
	return false
}

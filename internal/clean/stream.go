package clean

import (
	"context"
	"fmt"

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
// The one reuse across updates lives where it cannot bend the output: the
// MD blocking indexes (equality buckets, suffix array) are built once over
// master by the initial run and handed to every later sub-run instead of
// rebuilt; each sub-run probes them through fresh matchers with zeroed
// statistics, so counters still come out identical to a cold build. They
// also share the indexes' lookup memo, so an update looks up only the
// values the stream has never seen.
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
// returns a typed error with the engine bit-unchanged: base, tombstones
// and Result all stay exactly as the last accepted update left them. This
// holds by construction: validation precedes the candidate, the candidate
// shares tuples with base but never writes them, and nothing of the stream
// is written before the sub-run has succeeded.

// stream is the committed state of a streaming engine, held by the shell
// engine NewStream returns. Sub-runs get only its indexes, and only commit
// writes it, after a sub-run has succeeded.
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
	// filling; nil until the initial run commits.
	indexes []*mdIndex
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
// sub-engine through the same rebase path as every update, with freshly
// built indexes, which every later update reuses. The phase methods (CRepair,
// ERepair, HRepair, Finish) belong to batch engines and are not for use on
// the shell.
func NewStreamContext(ctx context.Context, data, master *relation.Relation, rules []rule.Rule, opts Options) (*Engine, error) {
	e := &Engine{
		master: master,
		rules:  rule.Order(rules),
		opts:   opts,
		stream: &stream{deleted: make(map[int]bool)},
	}
	if _, err := e.rebase(ctx, data.Clone()); err != nil {
		return nil, err
	}
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
	res, err := e.rebase(ctx, st.with(id, values, conf))
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
	res, err := e.rebase(ctx, st.with(id, nulls, nil))
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

// rebase runs a fresh sub-engine over base and, on success, commits base
// and its Result to the stream. The sub-engine inherits the shell's options
// and ordered rules and reuses the stream's blocking indexes and lookup
// memo instead of rebuilding them. On the initial run there are no indexes
// yet: the sub-engine builds them, and the stream keeps them.
func (e *Engine) rebase(ctx context.Context, base *relation.Relation) (*Result, error) {
	st := e.stream
	s := newEngine(ctx, base, e.master, e.rules, st.indexes, e.opts)
	res, err := s.runAll()
	if err != nil {
		return nil, err
	}
	if st.indexes == nil {
		st.indexes = s.indexes
	}
	st.base = base
	e.res = res
	return res, nil
}

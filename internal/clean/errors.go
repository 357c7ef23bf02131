package clean

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrCanceled is returned by RunContext and CheckContext when the context is
// canceled before the run completes. The engine guarantees the input
// relation is untouched (it only ever mutates its private clone) and that no
// partially committed round is observable: a failed run discards its clone
// and returns no Result.
var ErrCanceled = errors.New("clean: run canceled")

// ErrDeadline is the deadline-expired sibling of ErrCanceled, returned when
// the context's deadline passes mid-run. The soft budget Options.Deadline is
// different: it degrades the run to a truthful partial Report instead of
// erroring (see Options).
var ErrDeadline = errors.New("clean: deadline exceeded")

// ErrNotStreaming is returned by Upsert/Delete on an engine that was not
// built by NewStream: a batch engine has no base instance to rebase from,
// so the update API is meaningless on it.
var ErrNotStreaming = errors.New("clean: not a streaming engine (use NewStream)")

// ErrBadUpdate marks a rejected streaming update — id out of range, arity
// mismatch, confidence outside [0,1], delete of an already-deleted tuple.
// It is always wrapped with the specific reason (errors.Is to test), and a
// rejected update is guaranteed to have mutated nothing.
var ErrBadUpdate = errors.New("clean: invalid update")

// ctxErr maps a context error to the engine's typed sentinel.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}

// WorkerError is a panic contained by the engine — in a fan-out task, a
// rule pass, or the sequential phase code — converted into a structured
// error instead of tearing down the process. The failed run's clone is
// discarded, so no partial round is observable and the caller's input
// relation is untouched. When several tasks panic in one fan-out, the
// failure with the lowest task index among those recorded is propagated,
// which is deterministic for a deterministic fault source.
type WorkerError struct {
	// Phase is the pipeline phase that panicked: "cRepair", "eRepair",
	// "hRepair" (a rule pass), "certify", "prefetch" (a matcher's memo
	// prefetch), "new" (engine construction, re-panicked to the caller),
	// "rebase" (a stream update building its engine from the kept state),
	// or "run" for panics on the engine goroutine outside any rule pass,
	// such as eRepair's re-keying.
	Phase string
	// Rule is the name of the rule being applied, "" when not attributable.
	Rule string
	// Shard is the fan-out worker index, -1 for inline execution on the
	// engine goroutine (every rule pass).
	Shard int
	// Item is the worklist index of the work item being processed, or a
	// fan-out task's index; -1 when the panic fired outside both.
	Item int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the contained panic with its blast-radius coordinates.
func (e *WorkerError) Error() string {
	where := e.Phase
	if e.Rule != "" {
		where += " rule " + e.Rule
	}
	if e.Item >= 0 {
		where += fmt.Sprintf(" item %d", e.Item)
	}
	if e.Shard >= 0 {
		where += fmt.Sprintf(" (worker %d)", e.Shard)
	}
	return fmt.Sprintf("clean: panic contained in %s: %v", where, e.Value)
}

// Unwrap exposes a panic value that is itself an error (e.g. the fault
// injector's *Injected) to errors.Is/As.
func (e *WorkerError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// newWorkerError captures the recovered value r with its coordinates and the
// current stack.
func newWorkerError(r any, phase, ruleName string, shard, item int) *WorkerError {
	return &WorkerError{
		Phase: phase, Rule: ruleName, Shard: shard, Item: item,
		Value: r, Stack: debug.Stack(),
	}
}

// phaseName renders a worklist phase constant for error reports.
func phaseName(phase int) string {
	switch phase {
	case phaseC:
		return "cRepair"
	case phaseE:
		return "eRepair"
	case phaseH:
		return "hRepair"
	default:
		return fmt.Sprintf("phase%d", phase)
	}
}

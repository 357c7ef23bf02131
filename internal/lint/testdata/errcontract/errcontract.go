// Package errcontract is the golden fixture of the errcontract analyzer:
// every error that can cross the package API must be
// a package sentinel (Err*), a package-declared error type, or a fmt.Errorf
// wrap carrying one. The doubles mirror the engine's shapes: a sentinel, a
// *WorkerError with a constructor, a fail poison field, a deferred closure
// writing a named error result (the panic containment path).
package errcontract

import (
	"errors"
	"fmt"
	"strconv"
)

var ErrStopped = errors.New("errcontract: stopped")

type WorkerError struct{ Value any }

func (e *WorkerError) Error() string { return "contained" }

func newWE(v any) *WorkerError { return &WorkerError{Value: v} }

type Eng struct{ fail error }

// The sanctioned shapes: nil, a sentinel, a %w wrap of a sentinel, the
// package error type (literal and constructor), a traced local, a forwarded
// clean callee, and a named result assigned by a deferred closure.
func ok1() error        { return nil }
func ok2() error        { return ErrStopped }
func ok3() error        { return fmt.Errorf("phase 3: %w", ErrStopped) }
func ok4() (int, error) { return 0, &WorkerError{Value: "x"} }
func ok5() error        { return newWE("y") }

func ok6(deep bool) error {
	err := ErrStopped
	if deep {
		err = fmt.Errorf("deep: %w", ErrStopped)
	}
	return err
}

func ok7() (int, error) { return ok4() }

func contained() (res int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &WorkerError{Value: r}
		}
	}()
	return 1, nil
}

// The violations: a raw errors.New, a wrap that carries no typed error, an
// out-of-package error returned verbatim, and a parameter laundered through
// (untraceable, so it could be anything).
func bad1() error { return errors.New("raw") } // want "untyped error crosses the clean API"

func bad2() error { return fmt.Errorf("no sentinel %d", 7) } // want "untyped error crosses the clean API"

func bad3(s string) error {
	_, err := strconv.Atoi(s)
	return err // want "untyped error crosses the clean API"
}

func launder(err error) error { return err } // want "untyped error crosses the clean API"

// A deferred closure that poisons a named error result is a return site too.
func badNamed() (err error) {
	defer func() { err = errors.New("late") }() // want "untyped error crosses the clean API"
	return nil
}

// Forwarding a dirty in-package callee is NOT re-reported: the finding
// lands once, at bad1's own return.
func forward() error { return bad1() }

// The fail poison field: whatever is stored there crosses the API verbatim,
// so its assignments are audited; reading it back is sanctioned.
func (e *Eng) poison() {
	e.fail = errors.New("boom") // want "untyped error poisons the fail field"
}

func (e *Eng) poisonOK() {
	e.fail = ErrStopped
}

func (e *Eng) surface() error { return e.fail }

// A contract finding is suppressible like any other.
func external(s string) error {
	_, err := strconv.Atoi(s)
	return err //det:ok errcontract fixture: proves contract findings are suppressible
}

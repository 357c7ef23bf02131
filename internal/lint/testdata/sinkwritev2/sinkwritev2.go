// Package sinkwritev2 is the golden fixture of the alias-aware sinkwrite
// analyzer. It reproduces the laundering escape a purely lexical check
// misses — s := ap.e.apply[ri]; s.CTuples++ — plus the dataflow-extended
// worker scopes (a literal bound to a local and handed to the pool, a
// literal invoked from a worker body, a closure capture). Its want comments
// pin both directions: every laundered write is reported, and the
// sanctioned shapes are not.
package sinkwritev2

type ApplyStats struct{ CTuples int }

type Result struct{ Asserts int }

type Engine struct {
	res   *Result
	apply []*ApplyStats
	data  []tuple
	seen  map[int]bool
}

type tuple struct{ values []string }

type applier struct {
	e   *Engine
	buf []string
}

// stat is the sanctioned counter route: a call result is trusted.
func (ap *applier) stat(ri int) *ApplyStats { return ap.e.apply[ri] }

func runParallel(items []int, fn func(*applier, int)) {
	for _, i := range items {
		fn(nil, i)
	}
}

func fanOut(workers, tasks int, fn func(int)) {
	for t := 0; t < tasks; t++ {
		fn(t)
	}
}

// The docs/determinism.md escape verbatim: the shared pointer is laundered
// into a local of a non-shared intermediate type (*ApplyStats), so the
// lexical chain walk of v1 never meets a shared type on the write path.
func (ap *applier) launder(ri int) {
	s := ap.e.apply[ri]
	s.CTuples++ // want "local alias of shared Engine"
	s = nil     // rebinding the alias itself mutates nothing: no finding
	_ = s
}

// Two-step laundering through an intermediate local.
func (ap *applier) launderChain(ri int) {
	e := ap.e
	s := e.apply[ri]
	s.CTuples++ // want "local alias of shared Engine"
}

// Ranging over a shared container aliases its elements.
func (ap *applier) launderRange() {
	for _, s := range ap.e.apply {
		s.CTuples++ // want "local alias of shared Engine"
	}
}

// A closure captures an alias bound in its enclosing function: the binding
// is outside the worker scope, the write inside it.
func capture(e *Engine, items []int) {
	s := e.apply[0]
	runParallel(items, func(ap *applier, i int) {
		s.CTuples++ // want "local alias of shared Engine"
	})
}

// A literal bound to a local and handed to a pool entry point by name is
// worker-scoped (the certification harness does exactly this).
func certify(c *Engine, tasks int) {
	run := func(ti int) {
		c.res.Asserts++ // want "write through shared Result"
	}
	fanOut(2, tasks, run)
}

// A literal invoked from a worker body runs on the worker too.
func pooled(e *Engine, items []int) {
	runItem := func(i int) {
		e.seen[i] = true // want "write through shared Engine"
	}
	runParallel(items, func(ap *applier, i int) {
		runItem(i)
	})
}

// The sanctioned routes stay silent: the applier sink hands out shared
// pointers on purpose, an owned tuple binding is the ownership idiom, a
// value copy cannot mutate the structure it was read from, and applier
// state is worker-private.
func (ap *applier) sanctioned(ri, i int) {
	ap.stat(ri).CTuples++
	t := ap.e.data[i]
	t.values[0] = "owned"
	n := ap.e.apply[ri].CTuples
	n++
	_ = n
	ap.buf = append(ap.buf, "x")
}

// An alias finding is suppressible like any other.
func (ap *applier) suppressed(ri int) {
	s := ap.e.apply[ri]
	s.CTuples++ //det:ok sinkwrite fixture: proves alias findings are suppressible
}

// Outside any worker scope the same laundering is the commit path: silent.
func commit(e *Engine, ri int) {
	s := e.apply[ri]
	s.CTuples++
}

// Package sinkwritev2 is the golden fixture of the alias-aware sinkwrite
// analyzer. It reproduces the laundering escape a purely lexical check
// misses — s := e.apply[ri]; s.CTuples++ — plus the dataflow-extended
// worker scopes (a literal bound to a local and handed to fanOut, a
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

// stat is a sanctioned counter route: a call result is trusted.
func (e *Engine) stat(ri int) *ApplyStats { return e.apply[ri] }

func fanOut(workers, tasks int, fn func(int)) {
	for t := 0; t < tasks; t++ {
		fn(t)
	}
}

// The docs/determinism.md escape verbatim: the shared pointer is laundered
// into a local of a non-shared intermediate type (*ApplyStats), so the
// lexical chain walk of v1 never meets a shared type on the write path.
func launder(e *Engine, tasks int) {
	fanOut(2, tasks, func(ri int) {
		s := e.apply[ri]
		s.CTuples++ // want "local alias of shared Engine"
		s = nil     // rebinding the alias itself mutates nothing: no finding
		_ = s
	})
}

// Two-step laundering through an intermediate local.
func launderChain(e *Engine, tasks int) {
	fanOut(2, tasks, func(ri int) {
		x := e
		s := x.apply[ri]
		s.CTuples++ // want "local alias of shared Engine"
	})
}

// Ranging over a shared container aliases its elements.
func launderRange(e *Engine, tasks int) {
	fanOut(2, tasks, func(int) {
		for _, s := range e.apply {
			s.CTuples++ // want "local alias of shared Engine"
		}
	})
}

// A closure captures an alias bound in its enclosing function: the binding
// is outside the worker scope, the write inside it.
func capture(e *Engine, items []int) {
	s := e.apply[0]
	fanOut(2, len(items), func(task int) {
		s.CTuples++ // want "local alias of shared Engine"
	})
}

// A literal bound to a local and handed to fanOut by name is worker-scoped
// (the certification harness does exactly this).
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
	fanOut(2, len(items), func(task int) {
		runItem(items[task])
	})
}

// The sanctioned routes stay silent: a call result may hand out a shared
// pointer on purpose, an owned tuple binding is the ownership idiom, a
// value copy cannot mutate the structure it was read from, and task-local
// state is worker-private.
func sanctioned(e *Engine, ri, tasks int) {
	fanOut(2, tasks, func(i int) {
		e.stat(ri).CTuples++
		t := e.data[i]
		t.values[0] = "owned"
		n := e.apply[ri].CTuples
		n++
		_ = n
		var buf []string
		buf = append(buf, "x")
		_ = buf
	})
}

// An alias finding is suppressible like any other.
func suppressed(e *Engine, tasks int) {
	fanOut(2, tasks, func(ri int) {
		s := e.apply[ri]
		s.CTuples++ //det:ok sinkwrite fixture: proves alias findings are suppressible
	})
}

// Outside any worker scope the same laundering is the commit path: silent.
func commit(e *Engine, ri int) {
	s := e.apply[ri]
	s.CTuples++
}

package sinkwrite

// Writes that reach captured state through a body-local — s := e.apply[ri];
// s.CTuples++ — plus the extended worker scopes (a literal bound to a local
// and handed to fanOut, a literal invoked from a worker body, a closure
// capture). The want comments pin both directions: every such write is
// reported, and the fresh bindings are not.

// stat hands out a shared counter; calling it inside a write chain is a
// write through the captured receiver.
func (e *Engine) stat(ri int) *ApplyStats { return e.apply[ri] }

// fork returns a task-private engine, as the matchers' forks do.
func (e *Engine) fork() *Engine { return &Engine{res: &Result{}} }

// The docs/determinism.md escape verbatim: the shared pointer is laundered
// into a local of an intermediate type (*ApplyStats).
func launder(e *Engine, tasks int) {
	fanOut(2, tasks, func(ri int) int {
		s := e.apply[ri]
		s.CTuples++ // want "writes through s, which may alias captured state"
		s = nil     // rebinding the local itself mutates nothing: no finding
		_ = s
		return 0
	})
}

// Two-step laundering through an intermediate local.
func launderChain(e *Engine, tasks int) {
	fanOut(2, tasks, func(ri int) int {
		x := e
		s := x.apply[ri]
		s.CTuples++ // want "writes through s, which may alias captured state"
		return 0
	})
}

// Range variables may alias the ranged container's elements.
func launderRange(e *Engine, tasks int) {
	fanOut(2, tasks, func(int) int {
		for _, s := range e.apply {
			s.CTuples++ // want "writes through s, which may alias captured state"
		}
		return 0
	})
}

// A closure captures an alias bound in its enclosing function: the binding
// is outside the worker scope, the write inside it.
func capture(e *Engine, items []int) {
	s := e.apply[0]
	fanOut(2, len(items), func(task int) int {
		s.CTuples++ // want "writes captured s"
		return 0
	})
}

// A literal bound to a local and handed to fanOut by name is worker-scoped
// (certification does exactly this).
func certify(c *Engine, tasks int) {
	run := func(ti int) int {
		c.res.Asserts++ // want "writes captured c"
		return 0
	}
	fanOut(2, tasks, run)
}

// A literal invoked from a worker body runs on the worker too.
func pooled(e *Engine, items []int) {
	runItem := func(i int) {
		e.seen[i] = true // want "writes captured e"
	}
	fanOut(2, len(items), func(task int) int {
		runItem(items[task])
		return 0
	})
}

// Fresh bindings stay silent: a call result (a fork), a composite literal
// and a var declaration give the task state of its own, a helper closure
// inside the task shares the task's locals, and a value copy's rebinding
// mutates nothing. A counter reached through a call in the write chain is
// still the captured receiver's.
func sanctioned(e *Engine, ri, tasks int) {
	fanOut(2, tasks, func(i int) int {
		e.stat(ri).CTuples++ // want "writes captured e"
		t := e.data[i]
		t.values[0] = "owned" // want "writes through t"
		n := e.apply[ri].CTuples
		n++
		var buf []string
		buf = append(buf, "x")
		f := e.fork()
		f.res.Asserts++
		r := &Result{}
		r.Fixes = buf
		st := ApplyStats{CTuples: 1}
		st.CTuples++
		var acc ApplyStats
		add := func(k int) { acc.CTuples += k }
		add(n)
		return acc.CTuples + r.Asserts + st.CTuples
	})
}

// An alias finding is suppressible like any other.
func suppressed2(e *Engine, tasks int) {
	fanOut(2, tasks, func(ri int) int {
		s := e.apply[ri]
		s.CTuples++ //det:ok sinkwrite fixture: proves alias findings are suppressible
		return 0
	})
}

// Outside any worker scope the same laundering is the commit path: silent.
func commit(e *Engine, ri int) {
	s := e.apply[ri]
	s.CTuples++
}

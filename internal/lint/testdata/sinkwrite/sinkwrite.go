// Package sinkwrite is the golden fixture of the sinkwrite analyzer. It
// declares miniature doubles of the engine's structures and exercises each
// worker scope: `go` statement bodies and function literals handed to
// fanOut, whose generic double lives in parallel.go. alias.go holds the
// writes through body-locals and the extended worker scopes.
package sinkwrite

type Result struct {
	Asserts int
	Fixes   []string
}

type ApplyStats struct{ CTuples int }

type Engine struct {
	res   *Result
	apply []*ApplyStats
	data  []tuple
	seen  map[int]bool
}

type tuple struct {
	values []string
	conf   []float64
}

// Worker-scoped task: writes through the engine chain escape the merge.
func bad(e *Engine, tasks int) {
	fanOut(2, tasks, func(task int) int {
		e.res.Asserts++                        // want "writes captured e"
		e.res.Fixes = append(e.res.Fixes, "x") // want "writes captured e"
		alias := e
		alias.res.Asserts += 2 // want "writes through alias, which may alias captured state"
		return task
	})
}

// Task-local state is the sanctioned write. An item-owned tuple bound from
// the engine is not: the binding copies the slice headers, so the write
// lands in the engine's backing arrays.
func good(e *Engine, tasks int) {
	fanOut(2, tasks, func(task int) int {
		var buf []string
		buf = append(buf, "x")
		scratch := 0
		scratch++
		_, _ = buf, scratch
		t := e.data[task]
		t.values[0] = "owned" // want "writes through t"
		t.conf[0] = 1         // want "writes through t"
		return 0
	})
}

func suppressed(e *Engine, tasks int) {
	fanOut(2, tasks, func(task int) int {
		e.res.Asserts++ //det:ok sinkwrite fixture: proves direct findings are suppressible
		return 0
	})
}

// The task-result fan-out: a literal returns its task's result and the
// caller merges the results in task order. Writing a slot of a captured
// task slice instead is a captured write, even through a local pointer.
type seedTask struct {
	entropy  float64
	distinct int
}

func seedFanOut(e *Engine, n int) []seedTask {
	out, _ := fanOut(2, n, func(ti int) seedTask {
		var t seedTask
		t.entropy, t.distinct = 1.5, 2
		return t
	})
	return out
}

func seedSlots(e *Engine, n int) []seedTask {
	tasks := make([]seedTask, n)
	fanOut(2, len(tasks), func(ti int) bool {
		t := &tasks[ti]
		t.entropy, t.distinct = 1.5, 2 // want "writes through t" "writes through t"
		return true
	})
	return tasks
}

func launch(e *Engine, items []int) {
	var shared Result
	fanOut(2, len(items), func(task int) int {
		e.res.Asserts++  // want "writes captured e"
		shared.Asserts++ // want "writes captured shared"
		return 0
	})
	fanOut(2, len(items), func(task int) int {
		e.res.Fixes = append(e.res.Fixes, "y") // want "writes captured e"
		return 0
	})
	go func() {
		e.res.Asserts++ // want "writes captured e"
	}()
	// Outside worker scope the same write is the commit path: no finding.
	e.res.Asserts++
}

// An explicitly instantiated call is a fanOut call too.
func explicit(e *Engine, tasks int) {
	fanOut[int](2, tasks, func(task int) int {
		e.res.Asserts++ // want "writes captured e"
		return task
	})
}

// Package sinkwrite is the golden fixture of the sinkwrite analyzer. It
// declares miniature doubles of the engine's shared structures (the
// analyzer matches shared types by name within the analyzed package) and
// exercises each worker scope: `go` statement bodies and function literals
// handed to fanOut.
package sinkwrite

type Result struct {
	Asserts int
	Fixes   []string
}

type Engine struct {
	res  *Result
	data []tuple
}

type tuple struct {
	values []string
	conf   []float64
}

func fanOut(workers, tasks int, fn func(int)) {
	for task := 0; task < tasks; task++ {
		fn(task)
	}
}

// Worker-scoped task: writes through the engine chain escape the sink.
func bad(e *Engine, tasks int) {
	fanOut(2, tasks, func(task int) {
		e.res.Asserts++                        // want "write through shared Result"
		e.res.Fixes = append(e.res.Fixes, "x") // want "write through shared Result"
		alias := e
		alias.res.Asserts += 2 // want "write through shared Result"
	})
}

// Task-local state and item-owned cells are the sanctioned writes.
func good(e *Engine, tasks int) {
	fanOut(2, tasks, func(task int) {
		var buf []string
		buf = append(buf, "x")
		scratch := 0
		scratch++
		_, _ = buf, scratch
		t := e.data[task]
		t.values[0] = "owned"
		t.conf[0] = 1
	})
}

func suppressed(e *Engine, tasks int) {
	fanOut(2, tasks, func(task int) {
		e.res.Asserts++ //det:ok sinkwrite fixture: proves direct findings are suppressible
	})
}

// Task-slot fan-out: the seeding/certification entry points hand fanOut a
// literal whose only writes land in the worker's own slot of a local task
// slice of an unshared type. That is precomputation feeding the sequential
// merge, not a sink bypass — no finding.
type seedTask struct {
	entropy  float64
	distinct int
}

func seedFanOut(e *Engine, n int) []seedTask {
	tasks := make([]seedTask, n)
	fanOut(2, len(tasks), func(ti int) {
		t := &tasks[ti]
		t.entropy, t.distinct = 1.5, 2
	})
	return tasks
}

func launch(e *Engine, items []int) {
	var shared Result
	fanOut(2, len(items), func(task int) {
		e.res.Asserts++  // want "write through shared Result"
		shared.Asserts++ // want "write through shared Result"
	})
	fanOut(2, len(items), func(task int) {
		e.res.Fixes = append(e.res.Fixes, "y") // want "write through shared Result"
	})
	go func() {
		e.res.Asserts++ // want "write through shared Result"
	}()
	// Outside worker scope the same write is the commit path: no finding.
	e.res.Asserts++
}

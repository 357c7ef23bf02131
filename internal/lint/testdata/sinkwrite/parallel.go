package sinkwrite

import "sync"

// fanOut is the generic double of the engine's fan-out. Its goroutines
// write the captured result slots; files named parallel.go are exempt, so
// none of these writes is a finding.
func fanOut[T any](workers, tasks int, fn func(task int) T) ([]T, error) {
	out := make([]T, tasks)
	var wg sync.WaitGroup
	for task := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[task] = fn(task)
		}()
	}
	wg.Wait()
	return out, nil
}

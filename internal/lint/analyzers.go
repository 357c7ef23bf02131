package lint

// All returns the analyzer suite in reporting order: the determinism,
// concurrency and input-robustness invariants whose violations no test is
// sure to catch. DetOkStale is a pseudo-analyzer: its findings are computed
// by RunAll from the suppression table after the suite has run.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder, PoolOnly, SinkWrite, FloatEq, PanicFree, DetOkStale,
	}
}

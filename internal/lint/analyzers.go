package lint

// All returns the analyzer suite in reporting order: every determinism,
// concurrency and robustness invariant the engine's guarantees rest on, as a
// checked property. DetOkStale is a pseudo-analyzer: its findings are
// computed by RunAll from the suppression table after the suite has run.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder, PoolOnly, SinkWrite, FloatEq, PanicFree,
		CtxFlow, ErrContract, DetOkStale,
	}
}

package lint

// All returns every analyzer in the f2vet suite, in rollout order (the
// order they landed, which is also the order docs/STATIC_ANALYSIS.md
// catalogues them in).
func All() []*Analyzer {
	return []*Analyzer{
		Syncerr,
		Ctxflow,
		Spanend,
		Lockheld,
		Determinism,
		Deadexport,
	}
}

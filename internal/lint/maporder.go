package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose output feeds the byte-identity
// guarantee: everything they emit — Fixes order, Report violations, conflict
// lists, bench counters — must be reproducible run to run and identical
// across the rescan, sequential-incremental and parallel engines. Iterating
// a Go map inside them is exactly the bug class that bit PR 3 (groupEntropy
// summed in map order, flipping eRepair entropy ties) and that PR 4 had to audit
// by hand (the scheduler's dirty-key drain).
var deterministicPkgs = map[string]bool{
	"repro/internal/clean": true,
	"repro/internal/cfd":   true,
	"repro/internal/md":    true,
	"repro/internal/rule":  true,
}

func inDeterministicPkgs(path string) bool { return deterministicPkgs[path] }

// MapOrder flags `for … range` over map-typed values in the
// deterministic-output packages. Go randomizes map iteration order per run,
// so any such loop that feeds ordered output (a slice that is not
// subsequently sorted, a float accumulation, an emitted line) breaks the
// engine identity guarantee. Loops that are provably order-independent must
// say why: //det:ok maporder <reason>.
var MapOrder = &Analyzer{
	Name:      "maporder",
	Doc:       "range over a map in a deterministic-output package",
	AppliesTo: inDeterministicPkgs,
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Reportf(rng.For,
						"iteration over map (%s) has nondeterministic order; sort the keys or annotate //det:ok maporder <reason>",
						types.TypeString(t, types.RelativeTo(p.Pkg)))
				}
				return true
			})
		}
	},
}

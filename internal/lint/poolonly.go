package lint

import (
	"go/ast"
	"path/filepath"
)

// poolFile is the one file allowed to spawn goroutines: the engine's one
// concurrency primitive, fanOut, lives there, and everything concurrent in
// the engine is required to go through it.
const poolFile = "parallel.go"

// PoolOnly flags `go` statements outside parallel.go. The engine's whole
// determinism argument rests on concurrency being funneled through fanOut:
// its tasks write only their own task-indexed slots, and the caller merges
// the slots in task order after the barrier — an ad-hoc goroutine has no
// slot, no merge and no barrier, and reintroduces scheduling order into
// the output. New concurrency either goes through fanOut or justifies
// itself: //det:ok poolonly <reason>.
var PoolOnly = &Analyzer{
	Name: "poolonly",
	Doc:  "goroutine spawned outside the bounded pool (parallel.go)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if filepath.Base(p.Fset.Position(f.Pos()).Filename) == poolFile {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Go,
						"go statement outside %s bypasses fanOut's task-slot merge; use fanOut or annotate //det:ok poolonly <reason>",
						poolFile)
				}
				return true
			})
		}
	},
}

package lint

import (
	"go/ast"
)

// SinkWrite (v2) flags writes to engine/matcher shared state — the Engine
// and its Result/Report, the Checker, the scheduler with its group indexes,
// dirty sets and symtabs — from worker-scoped code. Such a write escapes
// fanOut's task-slot merge: it races the other workers and injects
// scheduling order into state the identity guarantee says is deterministic.
// Writes to item-owned cells go through a local tuple binding
// (t := e.data.Tuples[i]) — writing through the engine chain directly is
// flagged on purpose, since the binding is what makes item ownership
// visible.
//
// v2 is alias-aware where v1 was lexical. On top of the selector-chain
// check it tracks, per enclosing function, the locals that alias shared
// state — through plain assignments, struct-field loads, index loads, and
// closure captures — and flags writes through those aliases too, closing
// the documented laundering gap:
//
//	s := e.apply[ri] // *ApplyStats: a non-shared intermediate type
//	s.CTuples++      // v1 missed this; v2 reports it
//
// Worker-scope discovery is also dataflow-extended: beyond `go` statement
// bodies and literal arguments to fanOut, a literal bound to a local and
// then handed to fanOut, and a literal invoked from a worker-scoped body,
// are worker-scoped as well.
//
// The taint stops at the sanctioned boundaries (see dataflow.go): call
// results, which may hand out shared pointers on purpose, owned tuple
// bindings, and non-reference value copies.
var SinkWrite = &Analyzer{
	Name:      "sinkwrite",
	Doc:       "write to shared engine state from worker-scoped code (alias-aware)",
	AppliesTo: func(path string) bool { return path == "repro/internal/clean" },
	Run: func(p *Pass) {
		for _, f := range p.Files {
			// Package-level scope: methods and functions with no local
			// literal bindings still contribute go-stmt and literal-arg
			// worker bodies through their own declaration walk below.
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				sc := analyzeFunc(p, fd.Body)
				for _, body := range pruneNested(workerBodies(p, fd.Body, sc.lits)) {
					checkSinkWritesV2(p, sc, body)
				}
			}
		}
	},
}

// checkSinkWritesV2 reports every assignment or inc/dec inside body whose
// target chain passes through a shared-typed value, directly or through a
// tainted local alias.
func checkSinkWritesV2(p *Pass, sc *funcScope, body *ast.BlockStmt) {
	report := func(target ast.Expr) {
		name, viaAlias := sharedWriteBase(p, sc.taint, target)
		if name == "" {
			return
		}
		if viaAlias {
			p.Reportf(target.Pos(),
				"write through a local alias of shared %s from worker-scoped code escapes fanOut's task-slot merge; write the task's own result slot and merge after the barrier, or annotate //det:ok sinkwrite <reason>",
				name)
			return
		}
		p.Reportf(target.Pos(),
			"write through shared %s from worker-scoped code escapes fanOut's task-slot merge; write the task's own result slot and merge after the barrier, or annotate //det:ok sinkwrite <reason>",
			name)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(x.X)
		}
		return true
	})
}

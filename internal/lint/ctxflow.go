package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow mechanizes the round-granular cancellation contract: every loop
// in the engine package that can run unbounded work must reach a
// cancellation check on some path per iteration boundary. Two loop shapes
// are candidates:
//
//   - unbounded loops — `for {` and `for cond {` (no init, no post): the
//     fixpoint loops of the repair phases and the fan-out claim loops;
//   - rule worklist loops — `for ... := range rules` over a []Rule — when
//     the body drives rule work (calls one of passCalls, directly or
//     transitively): one rule pass can visit every tuple, inline or fanned
//     out, so a cancellation must be observable between rules.
//
// A loop passes when its condition or body reaches a check: a call to
// interrupted()/exhausted(), ctx.Err() on a context.Context, Load() on a
// sync/atomic abort flag — or a call to a same-package function that
// transitively contains one (fanOut checks per claimed task, so a loop
// driving it observes cancellation through it). Rule-range loops that only
// do bounded setup or merge bookkeeping (no rule work) are out of scope.
// Test files are exempt: tests may busy-wait on purpose.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "pipeline loop that never reaches a cancellation check",
	AppliesTo: func(path string) bool { return path == "repro/internal/clean" },
	Run:       runCtxFlow,
}

// ctxCheckNames are the engine's cancellation predicates: a call to either
// is a direct check wherever it appears (the fixpoint closure also treats
// any function whose body contains one as checking).
var ctxCheckNames = map[string]bool{
	"interrupted": true,
	"exhausted":   true,
}

// passCalls are the entry points of rule work: the fan-out and the two
// inline rule-pass loops, each of which can visit every tuple.
var passCalls = map[string]bool{
	"fanOut":      true,
	"applyTuples": true,
	"applyGroups": true,
}

// ctxFacts holds the package-level call-graph closure: which functions
// contain a cancellation check and which drive rule work.
type ctxFacts struct {
	p        *Pass
	decls    map[*types.Func]*ast.FuncDecl
	checking map[*types.Func]bool
	working  map[*types.Func]bool
}

func runCtxFlow(p *Pass) {
	facts := buildCtxFacts(p)
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch loop := n.(type) {
			case *ast.ForStmt:
				if loop.Init != nil || loop.Post != nil {
					return true
				}
				if facts.reachesCheck(loop.Cond) || facts.reachesCheck(loop.Body) {
					return true
				}
				p.Reportf(loop.Pos(),
					"unbounded loop reaches no cancellation check (interrupted/exhausted/ctx.Err/abort flag) on any path per iteration; check e.interrupted() at the iteration boundary or annotate //det:ok ctxflow <reason>")
			case *ast.RangeStmt:
				if !rulesRange(p, loop) || !facts.drivesWork(loop.Body) {
					return true
				}
				if facts.reachesCheck(loop.Body) {
					return true
				}
				p.Reportf(loop.Pos(),
					"rule worklist loop drives pool work but reaches no cancellation check (interrupted/exhausted/ctx.Err/abort flag) per iteration; check e.interrupted() between rules or annotate //det:ok ctxflow <reason>")
			}
			return true
		})
	}
}

// buildCtxFacts computes, to a fixpoint over the same-package call graph,
// which functions contain a cancellation check and which drive rule work.
func buildCtxFacts(p *Pass) *ctxFacts {
	facts := &ctxFacts{
		p:        p,
		decls:    make(map[*types.Func]*ast.FuncDecl),
		checking: make(map[*types.Func]bool),
		working:  make(map[*types.Func]bool),
	}
	calls := make(map[*types.Func][]*types.Func)
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			facts.decls[fn] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if directCheck(p, call) {
					facts.checking[fn] = true
				}
				if passCalls[calleeName(call)] {
					facts.working[fn] = true
				}
				if callee := calleeFunc(p, call); callee != nil {
					calls[fn] = append(calls[fn], callee)
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, callee := range callees {
				if facts.checking[callee] && !facts.checking[fn] {
					facts.checking[fn] = true
					changed = true
				}
				if facts.working[callee] && !facts.working[fn] {
					facts.working[fn] = true
					changed = true
				}
			}
		}
	}
	return facts
}

// reachesCheck reports whether the node contains a direct cancellation
// check or a call to a same-package function that transitively does.
func (facts *ctxFacts) reachesCheck(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if directCheck(facts.p, call) {
			found = true
			return false
		}
		if callee := calleeFunc(facts.p, call); callee != nil && facts.checking[callee] {
			found = true
			return false
		}
		return true
	})
	return found
}

// drivesWork reports whether the loop body calls one of passCalls,
// directly or through a same-package function.
func (facts *ctxFacts) drivesWork(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if passCalls[calleeName(call)] {
			found = true
			return false
		}
		if callee := calleeFunc(facts.p, call); callee != nil && facts.working[callee] {
			found = true
			return false
		}
		return true
	})
	return found
}

// directCheck reports whether the call is itself a cancellation check.
func directCheck(p *Pass, call *ast.CallExpr) bool {
	if ctxCheckNames[calleeName(call)] {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Err":
		return namedFromPkg(p.TypeOf(sel.X), "context", "Context")
	case "Load":
		t := p.TypeOf(sel.X)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
		}
	}
	return false
}

// rulesRange reports whether the range statement iterates a slice or array
// of Rule values (matched by element type name, so fixtures can declare a
// double).
func rulesRange(p *Pass, rng *ast.RangeStmt) bool {
	t := p.TypeOf(rng.X)
	if t == nil {
		return false
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	if ptr, ok := elem.Underlying().(*types.Pointer); ok {
		elem = ptr.Elem()
	}
	named, ok := elem.(*types.Named)
	return ok && named.Obj().Name() == "Rule"
}

// calleeFunc resolves a call to the *types.Func it invokes, or nil (local
// function values, builtins, interface dynamic calls).
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// namedFromPkg reports whether t is the named type pkgPath.name.
func namedFromPkg(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(p *Pass, f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

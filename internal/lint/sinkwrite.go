package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
)

// SinkWrite enforces fanOut's isolation rule by capture: a fanOut task
// returns its result for the caller to merge in task order after the
// barrier, so a worker body writes only state it created. In one, an
// assignment or ++/-- is a finding when the root identifier of its target
// is declared outside the body, and so is a write through a body-local
// (field, index or dereference) unless every binding of that local is
// fresh: a call result (a fork), a composite literal or a var declaration.
// Any other binding, such as s := e.apply[ri] or a range variable, may
// alias captured state.
//
// Worker bodies are `go` statement literals, literals passed to fanOut
// directly or through a local, and literals those bodies call; a literal
// nested in a worker body is judged as part of it. Files named parallel.go
// are exempt: fanOut's own goroutines write its result and failure slots.
var SinkWrite = &Analyzer{
	Name:      "sinkwrite",
	Doc:       "worker-scoped code writes a captured variable or a local that may alias one",
	AppliesTo: func(path string) bool { return path == "repro/internal/clean" },
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if filepath.Base(p.Fset.Position(f.Pos()).Filename) == poolFile {
				continue
			}
			lits := workerLits(p, f)
			for _, lit := range lits {
				if !slices.ContainsFunc(lits, func(o *ast.FuncLit) bool { return o != lit && o.Pos() <= lit.Pos() && lit.End() <= o.End() }) {
					checkCaptureWrites(p, lit)
				}
			}
		}
	},
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.IndexExpr:
		return calleeName(&ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeName(&ast.CallExpr{Fun: fun.X})
	}
	return ""
}

// identObj resolves an identifier expression to its object, or nil.
func identObj(p *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// workerLits returns the worker literals of one file: `go` statement
// literals and fanOut arguments, each a literal or a local bound to one,
// then the literals a worker body calls, to a fixpoint.
func workerLits(p *Pass, file *ast.File) []*ast.FuncLit {
	bound := make(map[types.Object]ast.Expr) // local -> the value bound to it
	var roots []ast.Expr
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i := 0; len(x.Lhs) == len(x.Rhs) && i < len(x.Rhs); i++ {
				bound[identObj(p, x.Lhs[i])] = x.Rhs[i]
			}
		case *ast.ValueSpec:
			for i := 0; len(x.Names) == len(x.Values) && i < len(x.Values); i++ {
				bound[identObj(p, x.Names[i])] = x.Values[i]
			}
		case *ast.GoStmt:
			roots = append(roots, x.Call.Fun)
		case *ast.CallExpr:
			if calleeName(x) == "fanOut" {
				roots = append(roots, x.Args...)
			}
		}
		return true
	})
	var lits []*ast.FuncLit
	for i := 0; i < len(roots); i++ {
		e := roots[i]
		if obj := identObj(p, e); obj != nil && bound[obj] != nil {
			e = bound[obj]
		}
		if lit, ok := e.(*ast.FuncLit); ok && !slices.Contains(lits, lit) {
			lits = append(lits, lit)
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					roots = append(roots, call.Fun)
				}
				return true
			})
		}
	}
	return lits
}

// checkCaptureWrites reports the writes in one worker literal that reach
// state the literal did not create.
func checkCaptureWrites(p *Pass, lit *ast.FuncLit) {
	inside := func(obj types.Object) bool { return lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() }
	fresh := make(map[types.Object]bool) // body-local -> every binding fresh
	bind := func(lhs ast.Expr, ok bool) {
		if obj := identObj(p, lhs); obj != nil && inside(obj) {
			prev, seen := fresh[obj]
			fresh[obj] = ok && (prev || !seen)
		}
	}
	var targets []ast.Expr
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				bind(lhs, freshValue(p, x.Rhs[min(i, len(x.Rhs)-1)]))
			}
			targets = append(targets, x.Lhs...)
		case *ast.ValueSpec:
			for i, name := range x.Names {
				bind(name, len(x.Values) == 0 || freshValue(p, x.Values[min(i, len(x.Values)-1)]))
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{x.Key, x.Value} {
				if v != nil && x.Tok == token.ASSIGN {
					targets = append(targets, v)
				}
				bind(v, false)
			}
		case *ast.IncDecStmt:
			targets = append(targets, x.X)
		}
		return true
	})
	for _, target := range targets {
		obj, through := rootObj(p, target)
		if obj != nil && (!inside(obj) || through && !fresh[obj]) {
			what := "captured " + obj.Name()
			if inside(obj) {
				what = "through " + obj.Name() + ", which may alias captured state (bind it to a call result, composite literal or var declaration)"
			}
			p.Reportf(target.Pos(), "worker-scoped code writes %s; return the value from the fanOut task and merge it after the barrier, or annotate //det:ok sinkwrite <reason>", what)
		}
	}
}

// rootObj walks an assignment target down its selector, index, slice,
// dereference and call chain to the object of the identifier it starts
// from, or nil; through reports whether the target writes through that
// identifier rather than rebinding it.
func rootObj(p *Pass, e ast.Expr) (obj types.Object, through bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return identObj(p, x), through
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil, false
		}
		through = true
	}
}

// freshValue reports whether binding e gives a local state of its own: a
// call result (but not a conversion, which keeps its operand's referent) or
// a composite literal, possibly addressed.
func freshValue(p *Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return x.Op == token.AND && freshValue(p, x.X)
	case *ast.CallExpr:
		return !p.Info.Types[x.Fun].IsType()
	}
	return false
}

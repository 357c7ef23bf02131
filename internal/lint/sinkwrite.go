package lint

import (
	"go/ast"
	"go/types"
)

// sharedTypes names the engine-shared structures of repro/internal/clean: a
// worker writing through any of them races the other workers and — worse —
// makes the output depend on goroutine scheduling. A fanOut task must
// instead write only its own task-indexed result slot, which the caller
// merges in task order after the barrier. The names are matched against
// types declared in the analyzed package, so fixtures can declare their
// own.
var sharedTypes = map[string]bool{
	"Engine":     true,
	"Result":     true,
	"Report":     true,
	"Checker":    true,
	"scheduler":  true,
	"groupIndex": true,
	"dirtySet":   true,
	"symtab":     true,
}

// workerScopeCalls are the functions whose function-literal arguments run on
// fanOut's workers, making those literals worker-scoped alongside `go`
// statement bodies.
var workerScopeCalls = map[string]bool{
	"fanOut": true,
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

// sharedTypeName returns the shared-type name behind t (directly or one
// pointer away) when t is declared in the analyzed package, else "".
func sharedTypeName(p *Pass, t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() != p.Pkg || !sharedTypes[obj.Name()] {
		return ""
	}
	return obj.Name()
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrContract mechanizes the typed-error half of the failure contract of
// repro/internal/clean: every error that can cross the package's API must
// be one of the typed errors: a package sentinel (ErrCanceled, ErrDeadline,
// ErrNotStreaming, ErrBadUpdate — any package-level Err* variable), a
// package-declared error type (*WorkerError), or a fmt.Errorf wrap that
// carries a sentinel (the %w idiom). The check classifies every error
// return of every function — local error variables are traced through
// their assignments (def-use), in-package calls through a fixpoint of
// per-function summaries, and the e.fail poison field through a
// package-wide audit of its assignments. A function that forwards a dirty
// in-package callee's error is not re-reported: the finding lands once, at
// the return (or assignment) that introduces the untyped error.
//
// The other half — a failed streaming update leaves the engine
// bit-unchanged — needs no rule: an update writes nothing before its
// sub-run has succeeded.
//
// Test files are exempt: tests fabricate errors freely.
var ErrContract = &Analyzer{
	Name:      "errcontract",
	Doc:       "untyped error crossing the clean API",
	AppliesTo: func(path string) bool { return path == "repro/internal/clean" },
	Run: func(p *Pass) {
		ec := newErrFacts(p)
		ec.solve()
		ec.report()
	},
}

// errStatus classifies an error expression.
type errStatus int

const (
	errOK        errStatus = iota // nil, sentinel, typed, or clean-callee
	errViaCallee                  // dirty only because an in-package callee is
	errIntrinsic                  // introduces an untyped error right here
)

func worseErr(a, b errStatus) errStatus {
	if b > a {
		return b
	}
	return a
}

// errFacts is the per-package state of the typed-error check: function
// summaries driven to a fixpoint over the same-package call graph.
type errFacts struct {
	p        *Pass
	errIface *types.Interface
	decls    map[*types.Func]*ast.FuncDecl
	clean    map[*types.Func]bool
	bindings map[*types.Func]map[types.Object][]ast.Expr
}

func newErrFacts(p *Pass) *errFacts {
	ec := &errFacts{
		p:        p,
		errIface: types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		decls:    make(map[*types.Func]*ast.FuncDecl),
		clean:    make(map[*types.Func]bool),
		bindings: make(map[*types.Func]map[types.Object][]ast.Expr),
	}
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
			ec.decls[fn] = fd
			ec.clean[fn] = true
			ec.bindings[fn] = collectBindings(p, fd.Body)
		}
	}
	return ec
}

// collectBindings maps every local object of the function to the
// expressions assigned to it, including assignments inside nested literals
// (a deferred closure writing a named result is how the panic containment
// path returns its *WorkerError).
func collectBindings(p *Pass, body ast.Node) map[types.Object][]ast.Expr {
	bind := make(map[types.Object][]ast.Expr)
	add := func(lhs, rhs ast.Expr) {
		if obj := identObj(p, lhs); obj != nil {
			bind[obj] = append(bind[obj], rhs)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					add(x.Lhs[i], x.Rhs[i])
				}
			} else if len(x.Rhs) == 1 {
				for _, lhs := range x.Lhs {
					add(lhs, x.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					add(x.Names[i], x.Values[i])
				}
			} else if len(x.Values) == 1 {
				for _, name := range x.Names {
					add(name, x.Values[0])
				}
			}
		}
		return true
	})
	return bind
}

// solve drives the per-function summaries to a fixpoint: clean only goes
// true -> false, so this terminates.
func (ec *errFacts) solve() {
	for changed := true; changed; {
		changed = false
		for fn, fd := range ec.decls {
			if !ec.clean[fn] {
				continue
			}
			if ec.declStatus(fn, fd) != errOK {
				ec.clean[fn] = false
				changed = true
			}
		}
	}
}

// declStatus combines the classification of every error return site of the
// function: explicit returns, single-call forwards, and bindings of named
// error results (which bare returns and deferred writes flow through).
func (ec *errFacts) declStatus(fn *types.Func, fd *ast.FuncDecl) errStatus {
	status := errOK
	ec.visitErrReturns(fn, fd, func(e ast.Expr, _ token.Pos) {
		status = worseErr(status, ec.classify(fn, e, nil))
	})
	return status
}

// visitErrReturns calls visit for every expression whose value can leave fn
// as an error result: return-site expressions in the error result slots,
// and every assignment to a named error result.
func (ec *errFacts) visitErrReturns(fn *types.Func, fd *ast.FuncDecl, visit func(e ast.Expr, at token.Pos)) {
	sig := fn.Type().(*types.Signature)
	results := sig.Results()
	var errIdx []int
	for i := 0; i < results.Len(); i++ {
		if types.Implements(results.At(i).Type(), ec.errIface) {
			errIdx = append(errIdx, i)
		}
	}
	if len(errIdx) == 0 {
		return
	}
	// Returns of fn itself: do not descend into nested literals, whose
	// returns are their own.
	inspectSkipLits(fd.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		switch {
		case len(ret.Results) == results.Len():
			for _, i := range errIdx {
				visit(ret.Results[i], ret.Pos())
			}
		case len(ret.Results) == 1 && results.Len() > 1:
			// return f() forwarding a multi-result call.
			visit(ret.Results[0], ret.Pos())
		}
	})
	// Named error results: deferred closures assign them after the fact.
	if fd.Type.Results != nil {
		bind := ec.bindings[fn]
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				obj := ec.p.Info.Defs[name]
				if obj == nil || !types.Implements(obj.Type(), ec.errIface) {
					continue
				}
				for _, rhs := range bind[obj] {
					visit(rhs, rhs.Pos())
				}
			}
		}
	}
}

// classify determines how an expression relates to the typed-error
// contract. fn is the enclosing function (for local def-use); visiting
// guards self-referential assignment cycles (optimistically OK — some
// other binding in the cycle must introduce the value).
func (ec *errFacts) classify(fn *types.Func, e ast.Expr, visiting map[types.Object]bool) errStatus {
	p := ec.p
	switch x := e.(type) {
	case *ast.ParenExpr:
		return ec.classify(fn, x.X, visiting)
	case *ast.Ident:
		obj := identObj(p, x)
		if obj == nil {
			return errIntrinsic
		}
		if _, isNil := obj.(*types.Nil); isNil {
			return errOK
		}
		if ec.typedError(obj.Type()) {
			return errOK
		}
		if v, ok := obj.(*types.Var); ok {
			// Package-level Err* sentinel.
			if v.Parent() == p.Pkg.Scope() && strings.HasPrefix(v.Name(), "Err") {
				return errOK
			}
			// Local: classify everything ever assigned to it.
			if visiting[obj] {
				return errOK
			}
			if visiting == nil {
				visiting = make(map[types.Object]bool)
			}
			visiting[obj] = true
			defer delete(visiting, obj)
			binds := ec.bindings[fn][obj]
			if len(binds) == 0 {
				return errIntrinsic // parameter or untraceable: launders anything
			}
			status := errOK
			for _, rhs := range binds {
				status = worseErr(status, ec.classify(fn, rhs, visiting))
			}
			return status
		}
		return errIntrinsic
	case *ast.SelectorExpr:
		if ec.typedError(p.TypeOf(x)) {
			return errOK
		}
		if x.Sel.Name == "fail" {
			return errOK // the poison field: its assignments are audited below
		}
		return errIntrinsic
	case *ast.CallExpr:
		return ec.classifyCall(fn, x, visiting)
	case *ast.UnaryExpr:
		// &WorkerError{...} composite literals land here.
		if ec.typedError(p.TypeOf(x)) {
			return errOK
		}
		return errIntrinsic
	default:
		if ec.typedError(p.TypeOf(e)) {
			return errOK
		}
		return errIntrinsic
	}
}

func (ec *errFacts) classifyCall(fn *types.Func, call *ast.CallExpr, visiting map[types.Object]bool) errStatus {
	p := ec.p
	if ec.typedError(p.TypeOf(call)) {
		return errOK // e.g. newWorkerError: returns the concrete typed error
	}
	callee := calleeFunc(p, call)
	if callee == nil {
		return errIntrinsic // func-value or builtin call: untraceable
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" && callee.Name() == "Errorf" {
		// The %w idiom: a wrap is typed iff it carries a typed error.
		status := errIntrinsic
		for _, arg := range call.Args {
			status = bestErr(status, ec.classify(fn, arg, visiting))
		}
		return status
	}
	if callee.Pkg() == p.Pkg {
		if _, known := ec.decls[callee]; known {
			if ec.clean[callee] {
				return errOK
			}
			return errViaCallee
		}
		return errIntrinsic
	}
	return errIntrinsic
}

func bestErr(a, b errStatus) errStatus {
	if b < a {
		return b
	}
	return a
}

// typedError reports whether t is (or points to) an error type declared in
// the analyzed package — the package's own typed errors.
func (ec *errFacts) typedError(t types.Type) bool {
	if t == nil || !types.Implements(t, ec.errIface) {
		return false
	}
	base := t
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		base = ptr.Elem()
	}
	named, ok := base.(*types.Named)
	return ok && named.Obj().Pkg() == ec.p.Pkg
}

// report walks every function once more with the final summaries and
// reports the intrinsic violations: return sites and named-result
// assignments that introduce an untyped error, plus any assignment that
// poisons the fail field with one.
func (ec *errFacts) report() {
	for fn, fd := range ec.decls {
		ec.visitErrReturns(fn, fd, func(e ast.Expr, at token.Pos) {
			if ec.classify(fn, e, nil) == errIntrinsic {
				ec.p.Reportf(at,
					"untyped error crosses the clean API here; return a package sentinel, a *WorkerError, or a fmt.Errorf(...%%w, Err...) wrap — or annotate //det:ok errcontract <reason>")
			}
		})
		// The poison field: anything assigned to .fail surfaces at the API.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "fail" {
					continue
				}
				if ec.classify(fn, as.Rhs[i], nil) == errIntrinsic {
					ec.p.Reportf(as.Rhs[i].Pos(),
						"untyped error poisons the fail field; it will cross the clean API verbatim — store a sentinel, a *WorkerError, or a typed wrap, or annotate //det:ok errcontract <reason>")
				}
			}
			return true
		})
	}
}

// inspectSkipLits walks n without descending into function literals.
func inspectSkipLits(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			visit(m)
		}
		return true
	})
}

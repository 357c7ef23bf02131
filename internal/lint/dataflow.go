// Light intraprocedural dataflow over go/types: local def-use and alias
// tracking for the v2 analyzers. The model is deliberately small — no SSA,
// no x/tools — and errs on the conservative side everywhere a suppression
// with a written reason can pick up the slack:
//
//   - funcScope computes, per top-level function, the function literals
//     bound to local identifiers and a flow-insensitive taint set of the
//     locals that alias shared engine state. Flow-insensitive means a local
//     tainted anywhere in the function is tainted everywhere in it; taint is
//     a fixpoint, so local-to-local copies propagate.
//   - workerBodies extends the lexical worker-scope discovery with two
//     dataflow facts: a literal bound to a local and later handed to fanOut
//     is worker-scoped, and a literal invoked from a worker-scoped body
//     runs on the worker too.
//
// Taint deliberately stops at three sanctioned boundaries: call results
// (accessors may return shared pointers on purpose), owned tuple bindings
// (t := e.data.Tuples[i] is how item ownership is made visible), and
// non-reference values (a copied struct or scalar cannot mutate the
// structure it was read from).
package lint

import (
	"go/ast"
	"go/types"
)

// ownedTypes are the item-owned cell types: binding one of these from the
// engine chain is the sanctioned ownership idiom, so the binding is not an
// alias of shared state. Matched by type name in any package so fixtures
// can declare doubles.
var ownedTypes = map[string]bool{
	"Tuple": true,
	"tuple": true,
}

// funcScope is the dataflow view of one top-level function declaration.
type funcScope struct {
	lits  map[types.Object]*ast.FuncLit // local x := func(...){...} bindings
	taint map[types.Object]string       // local -> shared type it aliases
}

// analyzeFunc computes the literal bindings and the shared-alias taint of
// one function body to a fixpoint. The scope covers the entire declaration
// including nested literals, so a closure capturing a tainted local of its
// enclosing function sees the taint.
func analyzeFunc(p *Pass, body ast.Node) *funcScope {
	sc := &funcScope{
		lits:  make(map[types.Object]*ast.FuncLit),
		taint: make(map[types.Object]string),
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true // multi-value call/comma-ok: results are untainted
				}
				for i := range x.Lhs {
					if sc.bind(p, x.Lhs[i], x.Rhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) != len(x.Values) {
					return true
				}
				for i := range x.Names {
					if sc.bind(p, x.Names[i], x.Values[i]) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				// Ranging over a shared container aliases its elements.
				if x.Value != nil {
					if sc.bindFrom(p, x.Value, aliasSource(p, sc.taint, x.X), x.Value) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return sc
}

// bind records lhs := rhs: a literal binding feeds worker-scope discovery,
// a shared-alias binding feeds the taint set. Reports whether it learned
// anything new.
func (sc *funcScope) bind(p *Pass, lhs, rhs ast.Expr) bool {
	if lit, ok := rhs.(*ast.FuncLit); ok {
		if obj := identObj(p, lhs); obj != nil && sc.lits[obj] == nil {
			sc.lits[obj] = lit
			return true
		}
		return false
	}
	return sc.bindFrom(p, lhs, aliasSource(p, sc.taint, rhs), rhs)
}

// bindFrom taints lhs with the shared-type name src when the bound value is
// a mutation-capable reference; typed is the expression whose static type
// decides that.
func (sc *funcScope) bindFrom(p *Pass, lhs ast.Expr, src string, typed ast.Expr) bool {
	if src == "" {
		return false
	}
	obj := identObj(p, lhs)
	if obj == nil || sc.taint[obj] != "" {
		return false
	}
	if !refType(p.TypeOf(typed)) {
		return false
	}
	sc.taint[obj] = src
	return true
}

// aliasSource returns the name of the shared type an expression aliases, or
// "" when it does not alias shared state. The walk follows the selector,
// index and dereference chain down to its base identifier, which names a
// shared type directly or is resolved through the taint set, and it
// applies the two sanctioned cuts: call results and owned tuple bindings.
func aliasSource(p *Pass, taint map[types.Object]string, e ast.Expr) string {
	if ownedType(p.TypeOf(e)) {
		return ""
	}
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if name := sharedTypeName(p, p.TypeOf(x)); name != "" {
				return name
			}
			if obj := identObj(p, x); obj != nil {
				return taint[obj]
			}
			return ""
		default:
			// Call results, literals, conversions: sanctioned or harmless.
			return ""
		}
		if name := sharedTypeName(p, p.TypeOf(e)); name != "" {
			return name
		}
	}
}

// sharedWriteBase walks the chain of an assignment target and returns the
// shared-type name the chain passes through, with viaAlias set when the
// chain reaches shared state only through a tainted local — the laundering
// case a lexical chain walk cannot see. A bare identifier target is never a
// shared write: rebinding a local mutates nothing.
func sharedWriteBase(p *Pass, taint map[types.Object]string, e ast.Expr) (name string, viaAlias bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return "", false
		}
		if name := sharedTypeName(p, p.TypeOf(e)); name != "" {
			return name, false
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := identObj(p, id); obj != nil && taint[obj] != "" {
				return taint[obj], true
			}
			return "", false
		}
	}
}

// workerBodies collects the worker-scoped bodies lexically reachable from
// root — `go` statement literals and literal arguments to fanOut — plus the
// two dataflow extensions: local identifiers bound to a literal and passed
// to fanOut, and literals invoked (directly or transitively) from an
// already worker-scoped body.
func workerBodies(p *Pass, root ast.Node, lits map[types.Object]*ast.FuncLit) []*ast.BlockStmt {
	seen := make(map[*ast.BlockStmt]bool)
	var order []*ast.BlockStmt
	add := func(b *ast.BlockStmt) {
		if b != nil && !seen[b] {
			seen[b] = true
			order = append(order, b)
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				add(lit.Body)
			}
		case *ast.CallExpr:
			if workerScopeCalls[calleeName(x)] {
				for _, arg := range x.Args {
					switch a := arg.(type) {
					case *ast.FuncLit:
						add(a.Body)
					case *ast.Ident:
						if obj := identObj(p, a); obj != nil {
							if lit := lits[obj]; lit != nil {
								add(lit.Body)
							}
						}
					}
				}
			}
		}
		return true
	})
	// Fixpoint: a literal called from a worker body runs on the worker.
	for i := 0; i < len(order); i++ {
		ast.Inspect(order[i], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if obj := identObj(p, id); obj != nil {
					if lit := lits[obj]; lit != nil {
						add(lit.Body)
					}
				}
			}
			return true
		})
	}
	return order
}

// pruneNested drops every body enclosed by another body in the set, so a
// recursive inspection of the survivors visits each statement exactly once.
func pruneNested(bodies []*ast.BlockStmt) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, b := range bodies {
		nested := false
		for _, outer := range bodies {
			if outer != b && outer.Pos() <= b.Pos() && b.End() <= outer.End() {
				nested = true
				break
			}
		}
		if !nested {
			out = append(out, b)
		}
	}
	return out
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

// refType reports whether t is a mutation-capable reference: a write
// through a value of such a type can reach the structure it was read from.
func refType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// ownedType reports whether t (directly or one pointer away) is an
// item-owned cell type.
func ownedType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && ownedTypes[named.Obj().Name()]
}

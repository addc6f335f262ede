package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// degrade enforces the store's degrade-to-miss contract on both sides
// of the Store front:
//
//  1. Inside the store package, a Get-path implementation (methods
//     named Get) must not return an error that originated in a
//     decode/validation function unless a degrade action (quarantine,
//     forget) ran first — corruption must become a future miss, not a
//     sticky error the caller re-hits on every access.
//  2. Outside the store package, entries must be read through the
//     counting Store front: calling a backend's Get directly bypasses
//     the front's miss classification, so a corrupt entry would surface
//     as an error instead of a recompute.
func degrade(prog *Program, idx *index, cfg Config) []Finding {
	decode := map[string]bool{}
	for _, d := range cfg.DecodeFuncs {
		decode[d] = true
	}
	action := set(cfg.DegradeActions...)
	backend := map[string]bool{}
	for _, b := range cfg.BackendTypes {
		backend[b] = true
	}

	var out []Finding
	for _, pkg := range prog.Pkgs {
		inStore := inScope(cfg.DegradeScope, pkg.Path)
		for _, file := range pkg.Files {
			if isTestFile(prog.Fset, file) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if inStore {
					if fd.Recv != nil && fd.Name.Name == "Get" {
						out = append(out, checkGetPath(prog, pkg, fd, decode, action)...)
					}
					continue
				}
				// Outside the store: no direct backend reads.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := callee(pkg.Info, call)
					if fn == nil || fn.Name() != "Get" {
						return true
					}
					sig, _ := fn.Type().(*types.Signature)
					if sig == nil || sig.Recv() == nil {
						return true
					}
					if recv := canonType(sig.Recv().Type()); backend[recv] {
						out = append(out, finding(prog.Fset, call.Pos(), CheckDegrade,
							"direct %s.%s bypasses the degrading Store front — read through Store.Get so corruption classifies as a miss", recv, fn.Name()))
					}
					return true
				})
			}
		}
	}
	return out
}

// checkGetPath taint-tracks decode errors through one Get-path method
// (func literals inside it included). A return that carries a
// decode-originated error is flagged unless a degrade action ran
// between the decode and the return.
func checkGetPath(prog *Program, pkg *Package, fd *ast.FuncDecl, decode, action map[string]bool) []Finding {
	// tainted maps error objects to the position of the decode call that
	// produced them.
	tainted := map[types.Object]token.Pos{}
	var actions []token.Pos

	isDecodeCall := func(call *ast.CallExpr) bool {
		fn := callee(pkg.Info, call)
		return fn != nil && decode[canonFunc(fn)]
	}
	// taintIn reports whether expr (recursively through wrapping calls
	// like fmt.Errorf or retry.Permanent) carries a tainted value, and
	// the taint origin.
	var taintIn func(e ast.Expr) (token.Pos, bool)
	taintIn = func(e ast.Expr) (token.Pos, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[e]; obj != nil {
				if pos, ok := tainted[obj]; ok {
					return pos, true
				}
			}
		case *ast.CallExpr:
			if isDecodeCall(e) {
				return e.Pos(), true
			}
			for _, arg := range e.Args {
				if pos, ok := taintIn(arg); ok {
					return pos, true
				}
			}
		}
		return token.NoPos, false
	}

	var out []Finding
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// err (re)assigned from a decode call taints it; any other
			// assignment clears it. Only error-typed objects carry taint —
			// the decoded payload on the success path is fine to return.
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj == nil || !isErrorType(obj.Type()) {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil {
					if pos, ok := taintIn(rhs); ok {
						tainted[obj] = pos
						continue
					}
				}
				delete(tainted, obj)
			}
		case *ast.CallExpr:
			if fn := callee(pkg.Info, n); fn != nil && action[fn.Name()] {
				actions = append(actions, n.Pos())
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				pos, ok := taintIn(res)
				if !ok {
					continue
				}
				if degradedBetween(actions, pos, n.Pos()) {
					continue
				}
				out = append(out, finding(prog.Fset, n.Pos(), CheckDegrade,
					"%s returns a raw decode/corruption error — degrade it to a miss (quarantine/forget, then ErrNotFound) or classify it as transport", fd.Name.Name))
			}
		}
		return true
	})
	return out
}

// isErrorType reports whether t is assignable to the error interface.
func isErrorType(t types.Type) bool {
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// degradedBetween reports whether a degrade action ran between the taint
// origin and the return (source-position order, which matches the
// straight-line quarantine-then-return shape the store uses).
func degradedBetween(actions []token.Pos, taint, ret token.Pos) bool {
	for _, a := range actions {
		if a > taint && a < ret {
			return true
		}
	}
	return false
}

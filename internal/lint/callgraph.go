package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// canonType renders a named type as "pkgpath.Name" (no pointer star).
func canonType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name() // error, comparable, ...
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// canonFunc renders a function or method as "pkgpath.Func" /
// "pkgpath.Type.Method" — the form Config lists use.
func canonFunc(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if recv := canonType(sig.Recv().Type()); recv != "" {
			return recv + "." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// callee resolves the static target of a call, or nil (interface
// dynamic dispatch still resolves — to the interface method object).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ioSite is one direct I/O call inside a function.
type ioSite struct {
	pos  token.Pos
	what string // e.g. "os.ReadFile", "os.File.Write"
}

// funcNode is one function in the cross-package static call graph.
// Calls made inside func literals are attributed to the enclosing
// declared function.
type funcNode struct {
	obj   *types.Func
	decl  *ast.FuncDecl
	pkg   *Package
	fires bool     // contains a FireFuncs call (set by failpoint pass)
	io    []ioSite // direct I/O calls in the body
	calls []*types.Func
}

// index is the analysis-wide view shared by the analyzers.
type index struct {
	prog  *Program
	funcs map[*types.Func]*funcNode
	// byName resolves canonical names to declared functions (used to
	// match Config lists against loaded declarations).
	byName map[string][]*funcNode
}

// buildIndex walks every declared function once, recording its static
// callees and direct I/O sites.
func buildIndex(prog *Program) *index {
	idx := &index{
		prog:   prog,
		funcs:  map[*types.Func]*funcNode{},
		byName: map[string][]*funcNode{},
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{obj: obj, decl: fd, pkg: pkg}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := callee(pkg.Info, call)
					if fn == nil {
						return true
					}
					node.calls = append(node.calls, fn)
					if what, ok := directIO(fn); ok {
						node.io = append(node.io, ioSite{pos: call.Pos(), what: what})
					}
					return true
				})
				idx.funcs[obj] = node
				name := canonFunc(obj)
				idx.byName[name] = append(idx.byName[name], node)
			}
		}
	}
	return idx
}

// ioPkgFuncs are package-level functions that perform I/O directly.
var ioPkgFuncs = map[string]map[string]bool{
	"os": set("Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
		"Remove", "RemoveAll", "Rename", "Stat", "Lstat", "ReadDir", "Mkdir",
		"MkdirAll", "MkdirTemp", "Truncate", "Chmod", "Chtimes", "Readlink",
		"Symlink", "Link", "Pipe", "StartProcess"),
	"net/http":      set("Get", "Post", "PostForm", "Head", "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS"),
	"net":           set("Dial", "DialTimeout", "Listen", "ListenPacket"),
	"path/filepath": set("Glob", "Walk", "WalkDir"),
}

// ioMethods are methods that perform I/O directly, keyed by the
// receiver's canonical type.
var ioMethods = map[string]map[string]bool{
	"os.File": set("Read", "ReadAt", "ReadFrom", "Write", "WriteAt", "WriteString",
		"WriteTo", "Sync", "Seek", "Truncate", "Stat", "Readdir", "ReadDir",
		"Readdirnames", "Chmod"),
	"net/http.Client": set("Do", "Get", "Post", "PostForm", "Head"),
	"net/http.Server": set("ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS"),
	"os/exec.Cmd":     set("Start", "Run", "Output", "CombinedOutput"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// directIO classifies a resolved callee as a direct I/O primitive.
func directIO(fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() != nil {
		recv := canonType(sig.Recv().Type())
		if ioMethods[recv][fn.Name()] {
			return recv + "." + fn.Name(), true
		}
		return "", false
	}
	if fn.Pkg() == nil {
		return "", false
	}
	if ioPkgFuncs[fn.Pkg().Path()][fn.Name()] {
		return fn.Pkg().Path() + "." + fn.Name(), true
	}
	return "", false
}

// markFires flags every function containing a call to one of the
// configured failpoint-firing functions.
func (idx *index) markFires(fireFuncs []string) {
	fire := map[string]bool{}
	for _, f := range fireFuncs {
		fire[f] = true
	}
	for _, node := range idx.funcs {
		for _, c := range node.calls {
			if fire[canonFunc(c)] {
				node.fires = true
				break
			}
		}
	}
}

// reachableFromFires computes the functions on some call path below a
// firing function: the set a failpoint can interpose on. A firing
// function covers itself and everything it (transitively) calls.
func (idx *index) reachableFromFires() map[*types.Func]bool {
	covered := map[*types.Func]bool{}
	var walk func(fn *types.Func)
	walk = func(fn *types.Func) {
		if covered[fn] {
			return
		}
		covered[fn] = true
		if node := idx.funcs[fn]; node != nil {
			for _, c := range node.calls {
				walk(c)
			}
		}
	}
	for _, node := range idx.funcs {
		if node.fires {
			walk(node.obj)
		}
	}
	return covered
}

// transitively computes the set of declared functions whose call closure
// satisfies pred (including functions satisfying it directly).
func (idx *index) transitively(pred func(*funcNode) bool) map[*types.Func]bool {
	// Reverse edges: callee -> callers (declared functions only).
	callers := map[*types.Func][]*types.Func{}
	result := map[*types.Func]bool{}
	var queue []*types.Func
	for obj, node := range idx.funcs {
		for _, c := range node.calls {
			callers[c] = append(callers[c], obj)
		}
		if pred(node) {
			result[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range callers[fn] {
			if !result[caller] {
				result[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return result
}

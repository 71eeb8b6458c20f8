package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Type and AST helpers shared by the analyzers. Everything matches by
// package path + name, never by object identity, because each target
// package is type-checked with its own importer instance.

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedAs reports whether t (possibly behind a pointer) is the named
// type pkgPath.name. Generic instantiations match their origin.
func namedAs(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// findInterface resolves the interface type pkgPath.name from the
// pass's package or its transitive imports; nil when the package is
// not in the import closure (the analyzer part that needs it then has
// nothing to check).
func findInterface(pass *analysis.Pass, pkgPath, name string) *types.Interface {
	pkg := findPackage(pass.Pkg, pkgPath, map[*types.Package]bool{})
	if pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

func findPackage(pkg *types.Package, path string, seen map[*types.Package]bool) *types.Package {
	if pkg == nil || seen[pkg] {
		return nil
	}
	seen[pkg] = true
	if pkg.Path() == path {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if found := findPackage(imp, path, seen); found != nil {
			return found
		}
	}
	return nil
}

// implements reports whether t or *t satisfies iface.
func implements(t types.Type, iface *types.Interface) bool {
	if iface == nil || t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// inspectStack walks every file, calling fn with each node and the
// stack of its ancestors (outermost first, excluding n itself).
// Returning false prunes the subtree.
func inspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// enclosingFunc returns the innermost function literal or declaration
// body on the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return stack[i]
		}
	}
	return nil
}

// enclosingLoop returns the innermost for/range statement on the
// stack that is inside the innermost function, or nil.
func enclosingLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		case *ast.FuncLit, *ast.FuncDecl:
			return nil
		}
	}
	return nil
}

// identObj resolves expr to the object of a plain identifier (or nil).
func identObj(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// methodCall matches a call of the form recv.sel(...) where recv's
// type (behind a pointer) is recvPkg.recvName, returning the receiver
// expression.
func methodCall(info *types.Info, call *ast.CallExpr, recvPkg, recvName, sel string) (ast.Expr, bool) {
	s, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return nil, false
	}
	tv, ok := info.Types[s.X]
	if !ok || !namedAs(tv.Type, recvPkg, recvName) {
		return nil, false
	}
	return s.X, true
}

// Package cowalias flags in-place mutation of copy-on-write values.
//
// Types marked //racelint:cow (the pipeline snapshot, the k-mer index,
// the database's shard states and view) publish immutable values to
// concurrent readers: a writer derives a new value and swaps it in,
// never mutating the published one.  The compiler does not know that,
// so this analyzer enforces it: outside functions marked
// //racelint:cowsafe (the constructors and the designated Grow /
// SetStats-style helpers that build values before publication), no
// statement may
//
//   - assign to a field of a COW-typed value,
//   - write an element of a slice, array, or map reachable through a
//     COW field (x.F[i] = v, x.F[i][j] = v),
//   - delete from a map field, or
//   - copy into a slice field.
//
// Appending *past* a COW slice's length (nids := cur.ids; nids =
// append(nids, id)) is deliberately not flagged: older readers index
// only up to their own length, which is exactly the repo's documented
// copy-on-write append idiom.  Intended exceptions carry
// "//lint:ignore racelint/cowalias reason".
package cowalias

import (
	"go/ast"
	"go/types"

	"racelogic/internal/analysis"
)

// Analyzer flags writes through copy-on-write types outside their
// designated constructors.
var Analyzer = &analysis.Analyzer{
	Name: "cowalias",
	Doc:  "flags in-place writes to //racelint:cow types outside //racelint:cowsafe functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok && pass.Marks.HasObj(obj, analysis.RoleCowSafe) {
				continue // a designated constructor/mutator, closures included
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkStore(pass, lhs)
			}
		case *ast.IncDecStmt:
			checkStore(pass, n.X)
		case *ast.CallExpr:
			checkCall(pass, n)
		}
		return true
	})
}

// checkStore flags a store whose target is, or is reached through, a
// field of a COW type.
func checkStore(pass *analysis.Pass, lhs ast.Expr) {
	if owner, field, depth := cowFieldBase(pass, lhs); owner != nil {
		what := "assignment to field"
		if depth > 0 {
			what = "element write through field"
		}
		pass.Reportf(lhs.Pos(), "%s %s of copy-on-write type %s outside a cowsafe constructor; derive a new value instead of mutating the published one",
			what, field, owner.Obj().Name())
	}
}

// checkCall flags delete and copy mutating COW fields.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	if !ok || len(call.Args) == 0 {
		return
	}
	switch b.Name() {
	case "delete", "copy":
		if owner, field, _ := cowFieldBase(pass, call.Args[0]); owner != nil {
			pass.Reportf(call.Pos(), "%s mutates field %s of copy-on-write type %s outside a cowsafe constructor",
				b.Name(), field, owner.Obj().Name())
		}
	}
}

// cowFieldBase walks an lvalue expression inward through index and
// dereference steps; if the base is a selector of a field on a
// //racelint:cow named type, it returns that type, the field name, and
// the number of indexing steps between the field and the store.
func cowFieldBase(pass *analysis.Pass, e ast.Expr) (*types.Named, string, int) {
	depth := 0
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
			depth++
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return nil, "", 0
			}
			owner := analysis.Named(sel.Recv())
			if owner == nil {
				return nil, "", 0
			}
			if pass.Marks.Has(analysis.ObjKey(owner.Obj()), analysis.RoleCow) {
				return owner, x.Sel.Name, depth
			}
			// x.F.G: keep walking — the inner base may itself be a COW
			// field holding a struct.
			e = x.X
			depth = 0
		default:
			return nil, "", 0
		}
	}
}

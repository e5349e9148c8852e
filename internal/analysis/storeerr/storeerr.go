// Package storeerr is an errcheck-style pass over the durability
// surface: a silently discarded error on an append, fsync, rename, or
// close path turns "acknowledged means durable" into a lie, so no
// error returned by the storage layer may be dropped by a bare call
// statement.
//
// A call's error result must be used when the callee is
//
//   - any function or method of racelogic/internal/store (the WAL,
//     manifest, and snapshot codecs), or
//   - a durability-relevant stdlib call: (*os.File) Sync, Close,
//     Write, WriteString, WriteAt, Truncate, Seek; package-level
//     os.Rename, Remove, RemoveAll, Mkdir, MkdirAll, WriteFile, Link,
//     Symlink, Truncate; and (*bufio.Writer).Flush.
//
// Assigning the error to _ is a visible, reviewable discard and is
// allowed, as are `defer f.Close()` on read paths and `go` statements
// (their results are unobservable by construction — write-path defers
// should still capture the error explicitly).
package storeerr

import (
	"go/ast"
	"go/types"

	"racelogic/internal/analysis"
)

// Analyzer flags ignored error returns on append/fsync/rename paths.
var Analyzer = &analysis.Analyzer{
	Name: "storeerr",
	Doc:  "flags discarded error returns from the store package and os/bufio durability calls",
	Run:  run,
}

// StorePath is the package whose every error return must be used.
const StorePath = "racelogic/internal/store"

// osFileMethods are (*os.File) methods whose errors matter on write
// paths.
var osFileMethods = map[string]bool{
	"Sync": true, "Close": true, "Write": true, "WriteString": true,
	"WriteAt": true, "Truncate": true, "Seek": true,
}

// osFuncs are package-level os functions on the durability surface.
var osFuncs = map[string]bool{
	"Rename": true, "Remove": true, "RemoveAll": true, "Mkdir": true,
	"MkdirAll": true, "WriteFile": true, "Link": true, "Symlink": true,
	"Truncate": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// The call's result is structurally unobservable here;
				// flagging would only breed wrapper noise.
				return false
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				checkCall(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || !returnsError(fn) || !durabilityCallee(fn) {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s is discarded on a durability path; handle it or assign it to _ explicitly", fn.FullName())
}

// returnsError reports whether fn's results include an error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// durabilityCallee reports whether fn is on the checked surface.
func durabilityCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case StorePath:
		return true
	case "os":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return analysis.Named(sig.Recv().Type()) != nil &&
				analysis.MethodOn(fn, "os", "File", fn.Name()) && osFileMethods[fn.Name()]
		}
		return osFuncs[fn.Name()]
	case "bufio":
		return analysis.MethodOn(fn, "bufio", "Writer", "Flush")
	}
	return false
}

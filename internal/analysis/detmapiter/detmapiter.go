// Package detmapiter flags map iterations whose effects depend on
// Go's randomized map order — the source-level hazard behind the
// repo's bit-identical-reports contract.
//
// A `range` over a map is allowed only when every effect in the loop
// body is order-independent:
//
//   - writes into maps (plain stores, delete) — distinct keys land the
//     same way in any order — unless the stored value calls anything
//     but a builtin or a type conversion, whose effects would run in
//     map order;
//   - append into a map bucket keyed by the range key variable itself
//     (each bucket is then built within a single iteration, the
//     partitioning idiom);
//   - commutative integer accumulation (+=, -=, |=, &=, ^=, *=, ++, --)
//     — float and string folds are order-dependent and flagged;
//   - idempotent stores whose value does not mention the iteration
//     variables (found = true);
//   - guarded max/min selection (if v > best { best = v });
//   - per-element calls into package sort or slices (sorting each
//     bucket in place commutes);
//   - collecting keys or values into a local slice that is passed to
//     sort/slices later in the same function — the canonical
//     collect-then-sort pattern;
//   - returning values that do not mention the iteration variables
//     (existence checks).
//
// Everything else — writers, channel sends, goroutines, returning the
// iteration key, appending to a slice that is never sorted — is
// reported.  Intentional nondeterminism is documented with
// "//lint:ignore racelint/detmapiter reason".
package detmapiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"racelogic/internal/analysis"
)

// Analyzer flags order-dependent map iteration.
var Analyzer = &analysis.Analyzer{
	Name: "detmapiter",
	Doc:  "flags range-over-map loops whose effects depend on map iteration order",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFuncBody(pass, fn.Body)
			return true
		})
	}
	return nil
}

// checkFuncBody finds map ranges directly inside one function body
// (including nested blocks and loops, but descending into nested
// function literals as their own scopes for the sort-after check).
func checkFuncBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncBody(pass, n.Body)
			return false
		case *ast.RangeStmt:
			if _, ok := pass.Info.TypeOf(n.X).Underlying().(*types.Map); ok {
				checkRange(pass, n, body)
			}
		}
		return true
	})
}

// collector is one outer slice appended to inside the loop; it must
// be sorted after the loop.  Collectors are keyed by their canonical
// expression string so both plain variables (keys) and field targets
// (rep.Shards) participate.
type collector struct {
	key string
	pos token.Pos
}

// checker carries one range statement's analysis state.
type checker struct {
	pass *analysis.Pass
	rs   *ast.RangeStmt
	// collectors lists outer slice variables appended to inside the
	// loop, in source order, first append only.
	collectors []collector
	// guards is the stack of enclosing if-conditions within the body.
	guards []ast.Expr
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, encl *ast.BlockStmt) {
	c := &checker{pass: pass, rs: rs}
	c.stmt(rs.Body)
	for _, col := range c.collectors {
		if !sortedAfter(pass, encl, rs.End(), col.key) {
			pass.Reportf(col.pos, "map iteration collects into %s, which is never sorted in this function; sort it before use to keep output deterministic", col.key)
		}
	}
}

// addCollector records the first append into the target.
func (c *checker) addCollector(key string, pos token.Pos) {
	for _, col := range c.collectors {
		if col.key == key {
			return
		}
	}
	c.collectors = append(c.collectors, collector{key: key, pos: pos})
}

// loopScoped reports whether the object is declared within the range
// statement (the key/value variables or body locals).
func (c *checker) loopScoped(obj types.Object) bool {
	return obj != nil && obj.Pos() >= c.rs.Pos() && obj.Pos() < c.rs.End()
}

// mentionsLoopVars reports whether the expression reads any
// loop-scoped identifier.
func (c *checker) mentionsLoopVars(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.loopScoped(c.pass.Info.ObjectOf(id)) {
			found = true
		}
		return !found
	})
	return found
}

// rangeKeyObj returns the object of the range key variable, or nil.
func (c *checker) rangeKeyObj() types.Object {
	id, ok := c.rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	return c.pass.Info.ObjectOf(id)
}

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.stmt(st)
		}
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.guards = append(c.guards, s.Cond)
		c.stmt(s.Body)
		c.guards = c.guards[:len(c.guards)-1]
		c.stmt(s.Else)
	case *ast.ForStmt:
		c.stmt(s.Init)
		c.stmt(s.Post)
		c.stmt(s.Body)
	case *ast.RangeStmt:
		// A nested map range is checked on its own by checkFuncBody;
		// its body's effects still count against this loop.
		c.stmt(s.Body)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		c.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		c.stmt(s.Body)
	case *ast.CaseClause:
		for _, st := range s.Body {
			c.stmt(st)
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.IncDecStmt:
		c.write(s.Pos(), s.X, s.Tok, nil)
	case *ast.ExprStmt:
		c.exprStmt(s)
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt:
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if c.mentionsLoopVars(res) {
				c.pass.Reportf(s.Pos(), "returning a value derived from map iteration picks an arbitrary element; iterate in sorted key order instead")
				return
			}
		}
	default:
		// go, defer, send, select, ... — all order-dependent effects.
		c.pass.Reportf(s.Pos(), "statement with order-dependent effects inside map iteration; restructure to iterate in sorted key order")
	}
}

// exprStmt allows delete and per-element sort calls; everything else
// is an effect whose order the map dictates.
func (c *checker) exprStmt(s *ast.ExprStmt) {
	call, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		c.pass.Reportf(s.Pos(), "expression with order-dependent effects inside map iteration")
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
			return
		}
	}
	if fn := analysis.Callee(c.pass.Info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "sort", "slices":
			return // sorting each element in place commutes
		}
	}
	c.pass.Reportf(s.Pos(), "call inside map iteration has order-dependent effects; collect and sort keys first")
}

func (c *checker) assign(s *ast.AssignStmt) {
	if s.Tok == token.DEFINE {
		return // fresh loop-locals; effects surface when they escape
	}
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		c.write(s.Pos(), lhs, s.Tok, rhs)
	}
}

// commutativeOps are the op-assign tokens that commute over integers.
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.OR_ASSIGN: true, token.AND_ASSIGN: true, token.XOR_ASSIGN: true,
	token.AND_NOT_ASSIGN: true, token.INC: true, token.DEC: true,
}

// write classifies one store (assignment or inc/dec) to lhs.
func (c *checker) write(pos token.Pos, lhs ast.Expr, tok token.Token, rhs ast.Expr) {
	lhs = ast.Unparen(lhs)

	// Blank and loop-local targets are scratch space.
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if c.loopScoped(c.pass.Info.ObjectOf(id)) {
			return
		}
		if c.collectorAppend(id, tok, rhs, pos) {
			return
		}
		c.writeOuterExpr(pos, id, tok, rhs)
		return
	}

	if ix, ok := lhs.(*ast.IndexExpr); ok {
		c.writeIndexed(pos, ix, tok, rhs)
		return
	}

	// Field, pointer, or other outer stores: same rules as outer
	// variables, collector appends included (rep.Shards =
	// append(rep.Shards, ...) sorted after the loop is legal).
	if c.collectorAppend(lhs, tok, rhs, pos) {
		return
	}
	c.writeOuterExpr(pos, lhs, tok, rhs)
}

// collectorAppend recognizes `X = append(X, ...)` where X does not
// mention the loop variables, recording X as a collector that must be
// sorted after the loop.
func (c *checker) collectorAppend(lhs ast.Expr, tok token.Token, rhs ast.Expr, pos token.Pos) bool {
	if tok != token.ASSIGN || rhs == nil || c.mentionsLoopVars(lhs) {
		return false
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !isAppendCall(c.pass.Info, call) || len(call.Args) == 0 {
		return false
	}
	key := exprString(lhs)
	if exprString(ast.Unparen(call.Args[0])) != key {
		return false
	}
	c.addCollector(key, pos)
	return true
}

// writeOuterExpr applies the order-independence rules shared by all
// outer stores.
func (c *checker) writeOuterExpr(pos token.Pos, lhs ast.Expr, tok token.Token, rhs ast.Expr) {
	switch {
	case commutativeOps[tok]:
		if isIntegral(c.pass.Info.TypeOf(lhs)) {
			return
		}
		c.pass.Reportf(pos, "non-integer accumulation across map iteration is order-dependent (floating-point folds differ per run); iterate in sorted key order")
	case tok == token.ASSIGN:
		if rhs != nil && !c.mentionsLoopVars(rhs) {
			return // idempotent: every iteration stores the same value
		}
		if c.guardSelects(lhs) {
			return // max/min selection under an ordered comparison
		}
		c.pass.Reportf(pos, "assignment inside map iteration keeps the last-visited value, which depends on map order; iterate in sorted key order")
	default:
		c.pass.Reportf(pos, "%s inside map iteration is order-dependent; iterate in sorted key order", tok)
	}
}

// writeIndexed handles stores through m[k] / s[i].
func (c *checker) writeIndexed(pos token.Pos, ix *ast.IndexExpr, tok token.Token, rhs ast.Expr) {
	// A map store's keys commute, but a call computing the stored value
	// runs in map order: a builder call (nl.And(...)) appends to its
	// receiver in a different order every run.
	if _, isMap := c.pass.Info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
		if call := effectCall(c.pass.Info, rhs); call != nil {
			c.pass.Reportf(pos, "store into %s calls %s, which runs in map iteration order; compute the values in sorted key order",
				exprString(ix), exprString(call.Fun))
			return
		}
	}
	if commutativeOps[tok] {
		if isIntegral(c.pass.Info.TypeOf(ix)) {
			return
		}
		c.pass.Reportf(pos, "non-integer accumulation into %s across map iteration is order-dependent; iterate in sorted key order", exprString(ix))
		return
	}
	if tok != token.ASSIGN {
		c.pass.Reportf(pos, "%s into an element across map iteration is order-dependent", tok)
		return
	}
	// Bucket append: m2[key] = append(m2[key], ...).  Order-independent
	// only when the bucket key is the range key itself — each bucket is
	// then completed within one iteration.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppendCall(c.pass.Info, call) {
		keyID, ok := ast.Unparen(ix.Index).(*ast.Ident)
		keyObj := c.rangeKeyObj()
		if ok && keyObj != nil && c.pass.Info.ObjectOf(keyID) == keyObj {
			return
		}
		c.pass.Reportf(pos, "append into %s accumulates in map iteration order; key the bucket by the range key or sort it afterwards", exprString(ix))
		return
	}
	// Plain element stores write each index once in the common case and
	// commute; colliding derived keys are on the author (escape hatch).
}

// guardSelects reports whether an enclosing if-condition is an ordered
// comparison mentioning lhs — the max/min selection pattern.
func (c *checker) guardSelects(lhs ast.Expr) bool {
	want := exprString(lhs)
	for _, g := range c.guards {
		ok := false
		ast.Inspect(g, func(n ast.Node) bool {
			b, isCmp := n.(*ast.BinaryExpr)
			if !isCmp {
				return true
			}
			switch b.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				if exprString(b.X) == want || exprString(b.Y) == want {
					ok = true
				}
			}
			return !ok
		})
		if ok {
			return true
		}
	}
	return false
}

// sortedAfter reports whether the collector expression is passed to a
// sort/slices function after pos within body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos, key string) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || sorted {
			return !sorted
		}
		fn := analysis.Callee(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if exprString(ast.Unparen(arg)) == key {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// effectCall returns the first call in e that is neither a builtin nor
// a type conversion, or nil.  A function literal is a value, not a
// call, so its body is skipped.
func effectCall(info *types.Info, e ast.Expr) *ast.CallExpr {
	if e == nil {
		return nil
	}
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; !tv.IsType() && !tv.IsBuiltin() {
				found = n
			}
		}
		return found == nil
	})
	return found
}

// isAppendCall reports whether call is the append builtin.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isIntegral reports whether t's underlying type is an integer or
// boolean — the accumulations that commute bit-exactly.
func isIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// exprString renders an expression for comparison and diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

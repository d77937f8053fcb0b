// Package detordering flags `range` statements over maps whose loop bodies
// feed order-sensitive computation. Go randomizes map iteration order, so
// any candidate list, result slice, score accumulation or early return
// built inside such a loop silently breaks the repository's determinism
// guarantee — byte-identical results for every Options.Workers value
// (DESIGN.md §7). The scope is analysis.DeterministicScope, every package
// a result can reach, so a helper that returns unsorted keys is reported
// at its own loop, wherever its callers live.
//
// A map range is accepted when its body only performs order-independent
// work: writes into other maps, deletes, local bookkeeping, and exact
// integer accumulation. The canonical sorted-iteration idiom is also
// accepted: appending keys (or values) to a slice that is passed to a
// sort.* / slices.Sort* call later in the same block before any other
// order-sensitive use.
//
// Everything else — appends that are never sorted, floating-point
// accumulation, last-write-wins assignments to outer variables, calls with
// potential side effects, channel sends, goroutine launches, and returns
// that depend on the loop variables — is reported. Exemptions require a
// justified //nontree:allow detordering annotation.
package detordering

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"nontree/internal/analysis"
)

// Analyzer is the detordering check.
var Analyzer = &analysis.Analyzer{
	Name: "detordering",
	Doc: "flag map iteration feeding candidate generation, result slices, " +
		"score accumulation, or other order-sensitive computation",
	Scope: analysis.DeterministicScope,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			list := stmtList(n)
			for i, stmt := range list {
				rs, ok := unwrapRange(stmt)
				if !ok {
					continue
				}
				if _, isMap := typeUnder(pass, rs.X).(*types.Map); !isMap {
					continue
				}
				checkMapRange(pass, rs, list[i+1:])
			}
			return true
		})
	}
	return nil
}

// stmtList returns the statement list held directly by n, if any.
func stmtList(n ast.Node) []ast.Stmt {
	switch b := n.(type) {
	case *ast.BlockStmt:
		return b.List
	case *ast.CaseClause:
		return b.Body
	case *ast.CommClause:
		return b.Body
	}
	return nil
}

// unwrapRange returns the RangeStmt in stmt, looking through labels.
func unwrapRange(stmt ast.Stmt) (*ast.RangeStmt, bool) {
	for {
		switch s := stmt.(type) {
		case *ast.RangeStmt:
			return s, true
		case *ast.LabeledStmt:
			stmt = s.Stmt
		default:
			return nil, false
		}
	}
}

func typeUnder(pass *analysis.Pass, e ast.Expr) types.Type {
	t := pass.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// finding is one order-sensitive construct in a map-range body.
type finding struct {
	pos token.Pos
	why string
	// appendTarget is non-nil for append-to-outer-slice findings, which
	// are forgiven when the slice is sorted after the loop.
	appendTarget types.Object
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	// An annotation on (or above) the `for` line exempts the whole loop.
	if pass.Allowed(rs.Pos()) {
		return
	}
	loopVars := rangeVars(pass, rs)
	findings := bodyFindings(pass, rs, loopVars)
	if len(findings) == 0 {
		return
	}

	// Forgive the sorted-keys idiom: every append target is sorted in the
	// statements following the loop, and nothing else was flagged.
	allAppends := true
	for _, f := range findings {
		if f.appendTarget == nil {
			allAppends = false
			break
		}
	}
	if allAppends {
		unsorted := false
		for _, f := range findings {
			if !sortedAfter(pass, f.appendTarget, rest) {
				unsorted = true
				break
			}
		}
		if !unsorted {
			return
		}
	}

	f := findings[0]
	pass.Reportf(f.pos, "%s inside iteration over map %s: map order is randomized, "+
		"so this breaks the Workers:N ≡ Workers:1 determinism guarantee; iterate a "+
		"sorted key slice instead (or annotate //nontree:allow detordering <why>)",
		f.why, exprString(rs.X))
}

// rangeVars collects the objects bound by the range's key/value idents.
func rangeVars(pass *analysis.Pass, rs *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				vars[obj] = true // `for k = range m` with an outer k
			}
		}
	}
	return vars
}

// bodyFindings walks the loop body collecting order-sensitive constructs.
func bodyFindings(pass *analysis.Pass, rs *ast.RangeStmt, loopVars map[types.Object]bool) []finding {
	body := rs.Body
	var out []finding
	add := func(pos token.Pos, why string) { out = append(out, finding{pos: pos, why: why}) }

	localObj := func(id *ast.Ident) types.Object {
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		return obj
	}
	declaredInBody := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				root := analysis.RootIdent(lhs)
				if root == nil {
					add(s.Pos(), "assignment through a computed expression")
					continue
				}
				obj := localObj(root)
				if s.Tok == token.DEFINE && pass.Info.Defs[root] != nil {
					continue // new variable local to the body
				}
				if declaredInBody(obj) {
					continue // body-local temp
				}
				if isMapIndexWrite(pass, lhs) {
					continue // map-to-map transfer is order-independent
				}
				if s.Tok == token.ASSIGN && len(s.Rhs) == len(s.Lhs) {
					if call := appendCall(s.Rhs[i]); call != nil {
						out = append(out, finding{
							pos:          s.Pos(),
							why:          fmt.Sprintf("append to %s", root.Name),
							appendTarget: obj,
						})
						continue
					}
				}
				if s.Tok == token.ASSIGN {
					add(s.Pos(), fmt.Sprintf("assignment to outer variable %s", exprString(lhs)))
					continue
				}
				// Compound assignment: exact integer accumulation commutes;
				// floating-point accumulation does not, nor do /= and shifts.
				if isIntType(pass.TypeOf(lhs)) && commutativeTok(s.Tok) {
					continue
				}
				add(s.Pos(), fmt.Sprintf("order-dependent accumulation into %s", exprString(lhs)))
			}
			return true
		case *ast.IncDecStmt:
			root := analysis.RootIdent(s.X)
			if root != nil {
				obj := localObj(root)
				if declaredInBody(obj) || isMapIndexWrite(pass, s.X) || isIntType(pass.TypeOf(s.X)) {
					return true
				}
			}
			add(s.Pos(), fmt.Sprintf("order-dependent accumulation into %s", exprString(s.X)))
			return true
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && !isOrderNeutralCall(pass, call) {
				add(s.Pos(), fmt.Sprintf("call to %s with potential side effects", exprString(call.Fun)))
				return false
			}
			return true
		case *ast.SendStmt:
			add(s.Pos(), "channel send")
			return true
		case *ast.GoStmt:
			add(s.Pos(), "goroutine launch")
			return false
		case *ast.DeferStmt:
			add(s.Pos(), "deferred call")
			return false
		case *ast.ReturnStmt:
			if refersTo(pass, s, loopVars) {
				add(s.Pos(), "return of a value derived from the loop variables")
			}
			return true
		}
		return true
	})
	return out
}

// isMapIndexWrite reports whether lvalue e writes an element of a map.
func isMapIndexWrite(pass *analysis.Pass, e ast.Expr) bool {
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	_, isMap := typeUnder(pass, idx.X).(*types.Map)
	return isMap
}

func appendCall(e ast.Expr) *ast.CallExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		return call
	}
	return nil
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func commutativeTok(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

// isOrderNeutralCall accepts builtin calls that cannot observe iteration
// order: delete, len, cap.
func isOrderNeutralCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
		switch b.Name() {
		case "delete", "len", "cap":
			return true
		}
	}
	return false
}

// refersTo reports whether any identifier under n resolves to one of objs.
func refersTo(pass *analysis.Pass, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether target is passed to a sort call in the
// statements following the range loop, before any other flagged use.
func sortedAfter(pass *analysis.Pass, target types.Object, rest []ast.Stmt) bool {
	if target == nil {
		return false
	}
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !analysis.IsPkgCall(pass.Info, call, "sort",
				"Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable") &&
				!analysis.IsPkgCall(pass.Info, call, "slices",
					"Sort", "SortFunc", "SortStableFunc") {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			if id := analysis.RootIdent(call.Args[0]); id != nil && pass.Info.Uses[id] == target {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "expression"
}

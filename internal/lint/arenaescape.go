package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaEscapeAnalyzer enforces the arena discipline behind the 0
// allocs/op contract: a slice field annotated //kollaps:arena is a
// pooled buffer its owner reuses across calls (grown once, re-sliced to
// zero every period), so any interior slice that outlives the call
// dangles the moment the arena grows or is reused. The analyzer tracks,
// per function, locals derived from arena fields (assignment,
// re-slicing, append chains) and flags the four escape shapes:
//
//   - sending an arena-derived slice over a channel (a receiver on
//     another goroutine reads it during or after reuse);
//   - storing one into longer-lived memory: a non-arena struct field, a
//     map entry, a package var, a pointer target, a composite literal,
//     or an append onto a non-arena slice;
//   - capturing an arena-derived local in a func literal (the closure
//     outlives the call; re-reading the field through a captured owner
//     pointer is fine — the owner always holds the current generation);
//   - returning one from an exported function (unexported returns are
//     intra-package hand-offs the caller's own analysis sees).
//
// A site annotated //kollaps:arenaok is a sanctioned hand-off: the
// consumer copies before the next reuse, or deliberately takes the
// buffer over (the DenseCaps idiom). Stores into other arena fields are
// always legal — that is ownership transfer within the pooled world.
//
// The derivation tracking is flow-insensitive within a function and
// does not follow calls: a callee that stashes its argument must take
// the annotation (or the arenaok site) itself.
var ArenaEscapeAnalyzer = &Analyzer{
	Name: "arenaescape",
	Doc: "flag interior slices of //kollaps:arena pooled buffers escaping their " +
		"owner: channel sends, heap stores, closure captures, exported returns",
	Run: runArenaEscape,
}

func runArenaEscape(pass *Pass) error {
	arena := collectArenaFields(pass)
	if len(arena) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkArenaFunc(pass, fd, arena)
		}
	}
	return nil
}

// collectArenaFields indexes slice-typed struct fields annotated
// //kollaps:arena.
func collectArenaFields(pass *Pass) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if _, ok := fieldDirectiveArg(field.Doc, field.Comment, "arena"); !ok {
					continue
				}
				for _, name := range field.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
						pass.Reportf(field.Pos(), "arena field %s is not a slice", name.Name)
						continue
					}
					out[v] = true
				}
			}
			return true
		})
	}
	return out
}

// arenaTracker is the per-function escape analysis state.
type arenaTracker struct {
	pass   *Pass
	arena  map[*types.Var]bool // annotated fields
	locals map[*types.Var]bool // locals holding arena-derived slices
}

// isArenaExpr reports whether e evaluates to an arena-backed slice: an
// arena field selector, a tracked local, or a re-slice/append chain
// rooted at one. Indexing yields an element, not an alias, and ends
// derivation; so does any other call (results are the callee's).
func (t *arenaTracker) isArenaExpr(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if v, ok := t.pass.TypesInfo.Uses[x].(*types.Var); ok {
			return t.locals[v]
		}
	case *ast.SelectorExpr:
		if sel, ok := t.pass.TypesInfo.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return t.arena[v]
			}
		}
	case *ast.SliceExpr:
		return t.isArenaExpr(x.X)
	case *ast.CallExpr:
		// append(arenaDerived, ...) aliases the same backing array when
		// capacity suffices — exactly the reuse the annotation protects.
		if id, ok := unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
			if b, ok := t.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				return t.isArenaExpr(x.Args[0])
			}
		}
	}
	return false
}

// isArenaDest reports whether an assignment target is itself an arena
// field (ownership transfer within the pool, always legal).
func (t *arenaTracker) isArenaDest(e ast.Expr) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := t.pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	v, ok := s.Obj().(*types.Var)
	return ok && t.arena[v]
}

// checkArenaFunc runs the two passes over one function: derive the
// arena-local set to a fixpoint, then flag escapes.
func checkArenaFunc(pass *Pass, fd *ast.FuncDecl, arena map[*types.Var]bool) {
	t := &arenaTracker{pass: pass, arena: arena, locals: make(map[*types.Var]bool)}

	// Pass 1 (fixpoint): propagate derivation through local assignments.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || !t.isArenaExpr(as.Rhs[i]) {
					continue
				}
				var v *types.Var
				if as.Tok == token.DEFINE {
					v, _ = pass.TypesInfo.Defs[id].(*types.Var)
				} else {
					v, _ = pass.TypesInfo.Uses[id].(*types.Var)
				}
				if v != nil && !v.IsField() && !t.locals[v] {
					t.locals[v] = true
					changed = true
				}
			}
			return true
		})
	}

	// Pass 2: flag escapes, honoring //kollaps:arenaok sites.
	exported := fd.Name.IsExported()
	allowed := func(pos token.Pos) bool { return pass.SiteAllowed(pos, "arenaok") }
	walk := func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if t.isArenaExpr(x.Value) && !allowed(x.Pos()) {
				pass.Reportf(x.Pos(), "arena-backed slice sent over channel; the receiver outlives the arena's reuse")
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if len(x.Rhs) != len(x.Lhs) || !t.isArenaExpr(x.Rhs[i]) || allowed(x.Pos()) {
					continue
				}
				switch dst := unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if !t.isArenaDest(dst) {
						pass.Reportf(x.Rhs[i].Pos(), "arena-backed slice stored in non-arena field %s escapes the arena", dst.Sel.Name)
					}
				case *ast.IndexExpr:
					if _, isMap := pass.TypesInfo.TypeOf(dst.X).Underlying().(*types.Map); isMap {
						pass.Reportf(x.Rhs[i].Pos(), "arena-backed slice stored in map escapes the arena")
					}
				case *ast.StarExpr:
					pass.Reportf(x.Rhs[i].Pos(), "arena-backed slice stored through pointer escapes the arena")
				case *ast.Ident:
					if v, ok := pass.TypesInfo.Uses[dst].(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
						pass.Reportf(x.Rhs[i].Pos(), "arena-backed slice stored in package var %s escapes the arena", v.Name())
					}
				}
			}
		case *ast.CallExpr:
			// append(nonArena, arenaDerived) stores the alias into a
			// longer-lived slice.
			if id, ok := unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 1 {
					if !t.isArenaExpr(x.Args[0]) {
						for _, arg := range x.Args[1:] {
							if t.isArenaExpr(arg) && !allowed(x.Pos()) {
								pass.Reportf(arg.Pos(), "arena-backed slice appended to non-arena slice escapes the arena")
							}
						}
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if t.isArenaExpr(v) && !allowed(v.Pos()) {
					pass.Reportf(v.Pos(), "arena-backed slice stored in composite literal escapes the arena")
				}
			}
		case *ast.ReturnStmt:
			if exported {
				for _, res := range x.Results {
					if t.isArenaExpr(res) && !allowed(x.Pos()) {
						pass.Reportf(res.Pos(), "arena-backed slice returned from exported %s escapes the arena; "+
							"copy it or annotate the hand-off //kollaps:arenaok", fd.Name.Name)
					}
				}
			}
		case *ast.FuncLit:
			// A closure capturing an arena-derived local pins the current
			// generation past the call; capturing the owner and re-reading
			// the field is the sanctioned shape.
			ast.Inspect(x.Body, func(inner ast.Node) bool {
				id, ok := inner.(*ast.Ident)
				if !ok {
					return true
				}
				if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && t.locals[v] && !allowed(id.Pos()) {
					pass.Reportf(id.Pos(), "arena-backed slice %s captured by closure outlives the arena's reuse", v.Name())
				}
				return true
			})
			return false
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

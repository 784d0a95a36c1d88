package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GuardedByAnalyzer enforces the lock annotations that license sharing
// state between the simulation thread and callers on other goroutines
// (the public API hands out the tracer and the metrics registry): a
// struct field (or package var) annotated //kollaps:guardedby <mutex>
// may only be read or written where the named mutex is statically held.
//
// "Statically held" is the lexical-dominator approximation: within the
// accessing function, the most recent Lock/RLock on that mutex before
// the access must not be followed by a non-deferred Unlock — the
// Lock(); defer Unlock() and Lock(); ...; Unlock() shapes both check
// out, an access after an inline Unlock does not. A function whose doc
// comment carries //kollaps:locked <mutex> declares the caller-holds-
// the-lock precondition and its body is exempt for that mutex.
// Composite-literal construction (the owner is not yet shared) is
// exempt by shape: field keys are plain identifiers, not selector
// accesses.
//
// Two companion checks ride on the same annotation index:
//
//   - lock-order inversion: two annotated mutexes acquired in both
//     orders anywhere in the package (A held while taking B in one
//     function, B held while taking A in another) — the static form of
//     the deadlock the chaos plane can only hit probabilistically;
//   - mutex copy: a value receiver on, or a dereference copy of, a
//     struct with guarded fields — the copied mutex guards nothing.
//
// The held-mutex tracking is per-function and lexical; handing a
// locked struct to a callee that accesses guarded fields needs the
// //kollaps:locked precondition on the callee, which is also what
// makes the contract readable at the call site.
var GuardedByAnalyzer = &Analyzer{
	Name: "guardedby",
	Doc: "check that //kollaps:guardedby fields are only touched with their mutex " +
		"held, that annotated mutexes are acquired in a consistent order, and that " +
		"guarded structs are not copied",
	Run: runGuardedBy,
}

// guardInfo is one annotated field or package var: the guarded object
// and the mutex that must be held to touch it.
type guardInfo struct {
	guarded *types.Var
	mutex   *types.Var
}

// lockEvent is one mutex state transition observed while scanning a
// function body in source order.
type lockEvent struct {
	pos      token.Pos
	mutex    *types.Var
	acquired bool // Lock/RLock; false for a non-deferred Unlock/RUnlock
}

func runGuardedBy(pass *Pass) error {
	guards, guardedStructs := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	mutexes := make(map[*types.Var]bool)
	for _, g := range guards {
		mutexes[g.mutex] = true
	}

	// lockOrder records, per ordered mutex pair, one position where the
	// second was acquired while the first was held.
	type pair struct{ a, b *types.Var }
	lockOrder := make(map[pair]token.Pos)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			events := lockEvents(pass, fd.Body, mutexes)
			exempt := lockedPreconditions(pass, fd, mutexes)
			checkGuardedAccesses(pass, fd, guards, events, exempt)
			recordLockOrder(events, func(a, b *types.Var, pos token.Pos) {
				if _, ok := lockOrder[pair{a, b}]; !ok {
					lockOrder[pair{a, b}] = pos
				}
			})
			checkMutexCopies(pass, fd, guardedStructs)
		}
	}

	// Report every ordered edge that participates in a two-cycle, at the
	// position the inner lock was taken, in deterministic order.
	var inverted []pair
	for p := range lockOrder {
		if _, ok := lockOrder[pair{p.b, p.a}]; ok && p.a != p.b {
			inverted = append(inverted, p)
		}
	}
	sort.Slice(inverted, func(i, j int) bool {
		return lockOrder[inverted[i]] < lockOrder[inverted[j]]
	})
	for _, p := range inverted {
		pass.Reportf(lockOrder[p],
			"lock order inversion: %s acquired while holding %s, and elsewhere in the reverse order",
			mutexName(p.b), mutexName(p.a))
	}
	return nil
}

// collectGuards indexes the package's //kollaps:guardedby annotations:
// struct fields whose mutex is a sibling field, and package vars whose
// mutex is a package-level var. The second result is the set of struct
// types that carry at least one guarded field, for the copy check.
func collectGuards(pass *Pass) ([]guardInfo, map[*types.Struct]bool) {
	var out []guardInfo
	structs := make(map[*types.Struct]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				arg, ok := fieldDirectiveArg(field.Doc, field.Comment, "guardedby")
				if !ok {
					continue
				}
				mu := structFieldByName(pass, st, arg)
				if mu == nil {
					pass.Reportf(field.Pos(), "guardedby names no sibling field %q", arg)
					continue
				}
				if !isMutexType(mu.Type()) {
					pass.Reportf(field.Pos(), "guardedby guard %q is not a sync mutex", arg)
					continue
				}
				if t, ok := pass.TypesInfo.TypeOf(st).(*types.Struct); ok {
					structs[t] = true
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out = append(out, guardInfo{guarded: v, mutex: mu})
					}
				}
			}
			return true
		})
		// Package vars: //kollaps:guardedby <pkg mutex var> on the decl.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				arg, ok := fieldDirectiveArg(vs.Doc, vs.Comment, "guardedby")
				if !ok {
					arg, ok = commentGroupArg(gd.Doc, "guardedby")
				}
				if !ok {
					continue
				}
				mu, _ := pass.Pkg.Scope().Lookup(arg).(*types.Var)
				if mu == nil || !isMutexType(mu.Type()) {
					pass.Reportf(vs.Pos(), "guardedby names no package-level mutex %q", arg)
					continue
				}
				for _, name := range vs.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out = append(out, guardInfo{guarded: v, mutex: mu})
					}
				}
			}
		}
	}
	return out, structs
}

// structFieldByName resolves a field of the syntactic struct st by name
// to its types object.
func structFieldByName(pass *Pass, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				v, _ := pass.TypesInfo.Defs[id].(*types.Var)
				return v
			}
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockEvents scans a function body in source order for Lock/RLock and
// non-deferred Unlock/RUnlock calls on the annotated mutexes.
func lockEvents(pass *Pass, body *ast.BlockStmt, mutexes map[*types.Var]bool) []lockEvent {
	var out []lockEvent
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var acquired bool
		switch sel.Sel.Name {
		case "Lock", "RLock":
			acquired = true
		case "Unlock", "RUnlock":
			if deferred[call] {
				// A deferred unlock releases at return: it never ends the
				// critical section for accesses below it.
				return true
			}
		default:
			return true
		}
		mu := resolveVar(pass, sel.X)
		if mu == nil || !mutexes[mu] {
			return true
		}
		out = append(out, lockEvent{pos: call.Pos(), mutex: mu, acquired: acquired})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// resolveVar resolves an expression to the types.Var it names: a struct
// field (through any selector chain) or a package/local var.
func resolveVar(pass *Pass, e ast.Expr) *types.Var {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		v, _ := pass.TypesInfo.Uses[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		// Package-qualified: pkg.Var.
		v, _ := pass.TypesInfo.Uses[x.Sel].(*types.Var)
		return v
	}
	return nil
}

// lockedPreconditions returns the set of mutexes the function's
// //kollaps:locked annotations declare held on entry, matched by name
// against the annotated guards' mutexes.
func lockedPreconditions(pass *Pass, fd *ast.FuncDecl, mutexes map[*types.Var]bool) map[*types.Var]bool {
	arg, ok := FuncDirectiveArg(fd, "locked")
	if !ok {
		return nil
	}
	out := make(map[*types.Var]bool)
	for _, name := range strings.Fields(arg) {
		for mu := range mutexes {
			if mu.Name() == name {
				out[mu] = true
			}
		}
	}
	return out
}

// checkGuardedAccesses flags reads/writes of guarded objects where the
// guard is not lexically held and no precondition covers it.
func checkGuardedAccesses(pass *Pass, fd *ast.FuncDecl, guards []guardInfo, events []lockEvent, exempt map[*types.Var]bool) {
	byObj := make(map[*types.Var]*types.Var, len(guards))
	for _, g := range guards {
		byObj[g.guarded] = g.mutex
	}
	heldAt := func(mu *types.Var, pos token.Pos) bool {
		held := false
		for _, ev := range events {
			if ev.pos >= pos {
				break
			}
			if ev.mutex == mu {
				held = ev.acquired
			}
		}
		return held
	}
	report := func(pos token.Pos, v, mu *types.Var) {
		if exempt[mu] || heldAt(mu, pos) {
			return
		}
		pass.Reportf(pos, "access to %s guarded by %s without holding the lock; "+
			"lock it first or annotate the function //kollaps:locked %s",
			v.Name(), mutexName(mu), mu.Name())
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[x]; ok {
				if v, ok := sel.Obj().(*types.Var); ok {
					if mu, guarded := byObj[v]; guarded {
						report(x.Sel.Pos(), v, mu)
					}
				}
			}
		case *ast.Ident:
			// Package vars are accessed as plain identifiers; composite
			// literal keys resolve to field objects, never package vars,
			// so initialization stays exempt.
			if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && !v.IsField() {
				if mu, guarded := byObj[v]; guarded {
					report(x.Pos(), v, mu)
				}
			}
		}
		return true
	})
}

// recordLockOrder emits an edge a→b for every Lock(b) taken while a is
// still lexically held.
func recordLockOrder(events []lockEvent, edge func(a, b *types.Var, pos token.Pos)) {
	for i, ev := range events {
		if !ev.acquired {
			continue
		}
		// Is any other mutex held at ev.pos?
		held := make(map[*types.Var]bool)
		for _, prev := range events[:i] {
			if prev.mutex != ev.mutex {
				held[prev.mutex] = prev.acquired
			}
		}
		for mu, h := range held {
			if h {
				edge(mu, ev.mutex, ev.pos)
			}
		}
	}
}

// checkMutexCopies flags the two copy shapes that silently decouple a
// guarded struct from its mutex: a value receiver, and a dereference
// copy assignment.
func checkMutexCopies(pass *Pass, fd *ast.FuncDecl, guardedStructs map[*types.Struct]bool) {
	isGuardedStruct := func(t types.Type) bool {
		if t == nil {
			return false
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return false
		}
		// The annotation index is built from syntax; match by identity of
		// the underlying struct type.
		for g := range guardedStructs {
			if types.Identical(st, g) {
				return true
			}
		}
		return false
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type); t != nil {
			if _, ptr := t.(*types.Pointer); !ptr && isGuardedStruct(t) {
				pass.Reportf(fd.Name.Pos(),
					"value receiver copies %s and its guarded fields' mutex; use a pointer receiver",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			star, ok := unparen(rhs).(*ast.StarExpr)
			if !ok {
				continue
			}
			if isGuardedStruct(pass.TypesInfo.TypeOf(star)) {
				pass.Reportf(rhs.Pos(), "dereference copies a struct with guarded fields; its mutex guards nothing in the copy")
			}
		}
		return true
	})
}

// mutexName renders a mutex var for diagnostics, qualified by its
// receiver struct when it is a field.
func mutexName(mu *types.Var) string {
	if mu.IsField() {
		return "(field) " + mu.Name()
	}
	return mu.Name()
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrderAnalyzer targets the bug class the four-strategy equivalence
// test can detect but never localize: Go randomizes map iteration
// order, so a `for k := range m` whose body feeds a wire encoder or an
// export sink produces different bytes on every run. In a
// //kollaps:deterministic package the analyzer flags a range over a
// map when either
//
//   - the loop body calls a sink — an encode/publish/marshal/export
//     function (by name: encode*, append* on wire buffers, Publish,
//     Marshal*, Write*, Fprint*, send*) — directly, or
//   - the loop body only collects keys/values into a slice, but no
//     sort call is visible between the loop and the function's end
//     while a sink call is.
//
// The sanctioned fix is the project's sortedKeys idiom: collect, sort,
// then iterate the slice. A range whose order provably cannot matter
// (pure counting, set membership) that still trips the heuristic can be
// annotated //kollaps:orderok on the `for` line or the line above.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flag map ranges whose iteration order can reach a wire encoder or export " +
		"sink without an intervening sort; suppress with //kollaps:orderok",
	Run: runMapOrder,
}

// sinkCall reports whether a called function's name looks like a
// serialization or export sink.
func sinkCall(name string) bool {
	switch {
	case strings.HasPrefix(name, "encode"), strings.HasPrefix(name, "Encode"),
		strings.HasPrefix(name, "Marshal"), strings.HasPrefix(name, "marshal"),
		strings.HasPrefix(name, "Write"), strings.HasPrefix(name, "write"),
		strings.HasPrefix(name, "Fprint"),
		strings.HasPrefix(name, "Send"), strings.HasPrefix(name, "send"),
		strings.HasPrefix(name, "appendRec"), strings.HasPrefix(name, "appendLinks"),
		strings.HasPrefix(name, "appendVV"),
		strings.HasPrefix(name, "AppendEncode"), strings.HasPrefix(name, "AppendLinks"):
		return true
	}
	switch name {
	case "Publish", "Broadcast", "Export", "Emit":
		return true
	}
	return false
}

// sortCall reports whether a call is a sort (sort.Slice, sort.Strings,
// sort.Ints, slices.Sort*, or a project sortedKeys helper).
func sortCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				p := pn.Imported().Path()
				if p == "sort" || p == "slices" {
					return strings.HasPrefix(fun.Sel.Name, "Sort") ||
						strings.HasPrefix(fun.Sel.Name, "Slice") ||
						fun.Sel.Name == "Strings" || fun.Sel.Name == "Ints"
				}
			}
		}
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "sorted") || strings.HasPrefix(fun.Name, "sort")
	}
	return false
}

func runMapOrder(pass *Pass) error {
	if !pass.PkgDirective("deterministic") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd)
		}
	}
	return nil
}

// checkMapRanges inspects one function for order-leaking map ranges.
func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Pre-scan the whole body: positions of sort calls and sink calls,
	// for the collect-then-sink heuristic.
	var sortPositions, sinkPositions []int
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		off := pass.Fset.Position(call.Pos()).Offset
		if sortCall(info, call) {
			sortPositions = append(sortPositions, off)
		}
		if name := calledName(call); name != "" && sinkCall(name) {
			sinkPositions = append(sinkPositions, off)
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.SiteAllowed(rng.Pos(), "orderok") {
			return true
		}

		// Direct leak: a sink call inside the loop body sees keys in
		// randomized order.
		direct := false
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := calledName(call); name != "" && sinkCall(name) {
				pass.Reportf(rng.Pos(),
					"map iteration order reaches sink %s; sort keys first (sortedKeys idiom) or annotate //kollaps:orderok",
					name)
				direct = true
				return false
			}
			return true
		})
		if direct {
			return true
		}

		// Collect-then-sink: the loop appends into a slice; if the
		// function later calls a sink but no sort call appears between
		// the loop end and that sink, order leaks through the slice.
		if !loopCollects(info, rng) {
			return true
		}
		loopEnd := pass.Fset.Position(rng.End()).Offset
		for _, sink := range sinkPositions {
			if sink < loopEnd {
				continue
			}
			sorted := false
			for _, s := range sortPositions {
				if s >= loopEnd && s < sink {
					sorted = true
					break
				}
			}
			if !sorted {
				pass.Reportf(rng.Pos(),
					"map range collects into a slice that reaches a sink without a sort; sort before encoding or annotate //kollaps:orderok")
			}
			break
		}
		return true
	})
}

// loopCollects reports whether the range body appends the iteration
// variables into an outer slice (the collect half of collect-then-sort).
func loopCollects(info *types.Info, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			found = true
			return false
		}
		return true
	})
	return found
}

// calledName extracts the bare name of a call target for sink matching.
func calledName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

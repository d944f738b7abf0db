// Package seedflow is the interprocedural generalization of wallclock
// and maporder: it follows nondeterministic *values* — wall-clock
// reads, draws from the global math/rand source, slices built in
// map-iteration order — across function boundaries (via the
// lint.Taint engine over the load's call graph) and flags them when
// they reach a determinism sink:
//
//   - an argument to any resultio function (result payloads are golden
//     and byte-compared),
//   - an argument to a serve cache-key constructor (content addresses
//     must be pure functions of the configuration),
//   - an argument to a sim/core/config entry point (simulated
//     state must replay identically from a seed).
//
// wallclock bans the sources inside internal/ outright; seedflow
// closes the remaining gap: a CLI may legitimately read the wall clock
// to time itself, but the moment that value flows into a result file
// or a cache key — however many helper functions deep — determinism is
// gone and every golden, the parallel-cluster equivalence property and
// the simd content-addressed cache silently rot.
//
// A function returning a slice built by appending inside a
// range-over-map loop is additionally flagged at the loop (unless the
// slice is sorted before escaping), with a suggested fix rewriting the
// loop to sorted-key iteration; `simlint -fix` applies it.
package seedflow

import (
	"go/ast"
	"go/types"
	"strings"

	"uvmsim/internal/lint"
)

// Analyzer is the seedflow checker.
var Analyzer = &lint.Analyzer{
	Name: "seedflow",
	Doc:  "follows wall-clock/global-rand/map-order taint across calls into result, cache-key and simulator-state sinks",
	Run:  run,
}

// bannedTime mirrors wallclock's wall-clock entry points.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRand mirrors wallclock's seeded-source constructors.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// source classifies taint-introducing calls.
func source(pkg *lint.Package, call *ast.CallExpr) (string, bool) {
	fn := lint.CalleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false // methods on explicit *rand.Rand etc. are seeded
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			return "the global rand." + fn.Name() + " source", true
		}
	}
	return "", false
}

// sinkOf classifies functions whose arguments must stay deterministic.
func sinkOf(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	seg := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		seg = path[i+1:]
	}
	switch seg {
	case "resultio":
		return "a deterministic result value", true
	case "serve":
		if strings.HasSuffix(fn.Name(), "Key") {
			return "a content-addressed cache key", true
		}
	case "sim", "core", "config":
		return "simulated state", true
	}
	return "", false
}

// taints caches one Taint engine per Program (analyzers run once per
// package; the summaries are whole-load facts).
var taints = make(map[*lint.Program]*lint.Taint)

func taintFor(prog *lint.Program) *lint.Taint {
	if t, ok := taints[prog]; ok {
		return t
	}
	t := lint.NewTaint(prog, source, true)
	taints[prog] = t
	return t
}

func run(pass *lint.Pass) {
	t := taintFor(pass.Prog)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fdecl := pass.Prog.Decl(obj)
			if fdecl == nil {
				continue
			}
			lt := t.Local(fdecl)
			checkSinks(pass, fd, lt)
			checkEscapingMapOrder(pass, f, fd, lt)
		}
	}
}

// checkSinks flags tainted arguments at sink call sites.
func checkSinks(pass *lint.Pass, fd *ast.FuncDecl, lt *lint.LocalTaint) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := lint.CalleeFunc(pass.Info, call)
		what, isSink := sinkOf(callee)
		if !isSink {
			return true
		}
		for _, arg := range call.Args {
			if reason, tainted := lt.Expr(arg); tainted {
				pass.Reportf(arg.Pos(), "argument to %s %s; %s must not depend on wall clock, the global rand source or map iteration order",
					lint.FuncName(callee), reason, what)
				break // one finding per call keeps output readable
			}
		}
		return true
	})
}

// checkEscapingMapOrder flags range-over-map loops whose appended
// slice is returned unsorted — the shape that exports iteration order
// to every caller — and suggests the sorted-keys rewrite.
func checkEscapingMapOrder(pass *lint.Pass, f *ast.File, fd *ast.FuncDecl, lt *lint.LocalTaint) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		xt := pass.TypeOf(rng.X)
		if xt == nil {
			return true
		}
		if _, isMap := xt.Underlying().(*types.Map); !isMap {
			return true
		}
		obj := appendTarget(pass, rng.Body)
		if obj == nil {
			return true
		}
		if !stillTainted(lt, obj) || !returns(pass, fd, obj) {
			return true
		}
		var edits []lint.TextEdit
		if e, ok := lint.SortedRangeFix(pass, f, rng); ok {
			edits = e
		}
		pass.ReportfFix(rng.Pos(), edits,
			"%s is built in map-iteration order and returned; callers inherit a nondeterministic order — iterate sorted keys", obj.Name())
		return true
	})
}

// appendTarget returns the object x of an `x = append(x, ...)` inside
// the loop body, or nil.
func appendTarget(pass *lint.Pass, body *ast.BlockStmt) types.Object {
	var obj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || obj != nil || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return obj == nil
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "append" {
			return true
		}
		if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
			return true
		}
		obj = pass.Info.ObjectOf(id)
		return false
	})
	return obj
}

// stillTainted reports whether obj kept its map-order taint (i.e. was
// not sorted later in the body).
func stillTainted(lt *lint.LocalTaint, obj types.Object) bool {
	_, ok := lt.Object(obj)
	return ok
}

// returns reports whether fd returns obj (directly or as part of an
// expression).
func returns(pass *lint.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if lint.MentionsObject(pass.Info, res, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

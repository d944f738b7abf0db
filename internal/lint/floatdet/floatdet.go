// Package floatdet flags floating-point accumulation whose result
// depends on a nondeterministic iteration order. Float addition is not
// associative: summing the same values in a different order yields a
// different rounding, so an accumulator fed from a range-over-map loop
// or a channel-receive loop drifts run to run even though every input
// is identical. In this repository such drift breaks byte-identical
// goldens, the parallel-cluster equivalence property and the simd
// content-addressed cache.
//
// Two shapes are reported inside an unordered loop (range over a map or
// over a channel):
//
//   - a direct float accumulation: `sum += v`, `sum = sum + v`,
//     `*p -= v`, `s.total *= v`, when the target outlives one iteration;
//   - a call to a function that (transitively) accumulates floats into
//     state shared across calls — a pointer/receiver target or a
//     package-level variable. Summaries are computed over the whole
//     load's call graph (lint.Program.Fixpoint), so the accumulation
//     may hide any number of calls deep, in any package.
//
// The callee summary deliberately over-approximates: a caller that
// confines the accumulator to its own locals still inherits its
// callee's summary. When a call is provably order-insensitive, say so
// with `//simlint:allow floatdet -- reason`.
//
// Integer accumulation is exempt (exact, commutative), as is any
// accumulator declared inside the loop body (re-initialized per
// iteration) and ordered iteration over slices, arrays and strings.
// For map loops the analyzer attaches the sorted-keys rewrite as a
// suggested fix; `simlint -fix` applies it.
package floatdet

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"uvmsim/internal/lint"
)

// Analyzer is the floatdet checker.
var Analyzer = &lint.Analyzer{
	Name: "floatdet",
	Doc:  "flags float accumulation in map-range or channel-receive loops, including through calls that accumulate into shared state",
	Run:  run,
}

// loopCtx is the innermost unordered loop enclosing the node being
// visited.
type loopCtx struct {
	rng  *ast.RangeStmt
	kind string // "range-over-map" or "range-over-channel"
}

// summaries caches the accumulator Fixpoint per Program (the analyzer
// runs once per package; the summaries are whole-load facts).
var summaries = make(map[*lint.Program]map[*types.Func]string)

func accumulators(prog *lint.Program) map[*types.Func]string {
	if s, ok := summaries[prog]; ok {
		return s
	}
	s := prog.Fixpoint(func(fn *types.Func, decl *lint.FuncDecl) (string, bool) {
		if accumulatesShared(decl) {
			return "accumulates floating-point values into state shared across calls", true
		}
		return "", false
	})
	summaries[prog] = s
	return s
}

func run(pass *lint.Pass) {
	accs := accumulators(pass.Prog)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walk(pass, f, fd.Body, nil, accs)
		}
	}
}

// walk visits n tracking the innermost unordered-loop context. Func
// literals are boundaries: their bodies run on their own schedule, not
// per loop iteration the analyzer can see.
func walk(pass *lint.Pass, f *ast.File, n ast.Node, ctx *loopCtx, accs map[*types.Func]string) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			nctx := ctx
			if t := pass.TypeOf(m.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					nctx = &loopCtx{rng: m, kind: "range-over-map"}
				case *types.Chan:
					nctx = &loopCtx{rng: m, kind: "range-over-channel"}
				}
			}
			walk(pass, f, m.X, ctx, accs)
			walk(pass, f, m.Body, nctx, accs)
			return false
		case *ast.AssignStmt:
			if ctx != nil {
				checkAccum(pass, f, m, ctx)
			}
		case *ast.CallExpr:
			if ctx != nil {
				checkCall(pass, f, m, ctx, accs)
			}
		}
		return true
	})
}

// checkAccum flags a direct float accumulation whose target outlives
// one iteration of the unordered loop.
func checkAccum(pass *lint.Pass, f *ast.File, as *ast.AssignStmt, ctx *loopCtx) {
	lhs, ok := floatAccumLHS(pass.Info, as)
	if !ok {
		return
	}
	obj := rootObject(pass.Info, lhs)
	if obj == nil {
		return
	}
	// Declared inside the loop body: re-initialized per iteration, so
	// the accumulation order within one iteration is the caller's own.
	if obj.Pos() >= ctx.rng.Pos() && obj.Pos() < ctx.rng.End() {
		return
	}
	pass.ReportfFix(as.Pos(), mapFix(pass, f, ctx),
		"floating-point accumulation into %s inside a %s loop depends on iteration order; iterate sorted keys, use integer arithmetic, or reduce in a fixed order",
		render(pass.Fset, lhs), ctx.kind)
}

// checkCall flags calls to functions that transitively accumulate
// floats into shared state.
func checkCall(pass *lint.Pass, f *ast.File, call *ast.CallExpr, ctx *loopCtx, accs map[*types.Func]string) {
	callee := lint.CalleeFunc(pass.Info, call)
	if callee == nil {
		return
	}
	reason, ok := accs[callee]
	if !ok {
		return
	}
	pass.ReportfFix(call.Pos(), mapFix(pass, f, ctx),
		"call to %s inside a %s loop %s; the accumulated value depends on iteration order",
		lint.FuncName(callee), ctx.kind, reason)
}

// mapFix returns the sorted-keys rewrite for map loops (channels have
// no fixable order).
func mapFix(pass *lint.Pass, f *ast.File, ctx *loopCtx) []lint.TextEdit {
	if ctx.kind != "range-over-map" {
		return nil
	}
	if edits, ok := lint.SortedRangeFix(pass, f, ctx.rng); ok {
		return edits
	}
	return nil
}

// floatAccumLHS returns the accumulation target when as is a float
// compound assignment (+=, -=, *=, /=) or the spelled-out
// `x = x op v` form.
func floatAccumLHS(info *types.Info, as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	lhs := ast.Unparen(as.Lhs[0])
	if !isFloat(info.TypeOf(lhs)) {
		return nil, false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return lhs, true
	case token.ASSIGN:
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return nil, false
		}
		bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return nil, false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return nil, false
		}
		if lint.MentionsObject(info, bin, obj) {
			return lhs, true
		}
	}
	return nil, false
}

// rootObject resolves the variable an accumulation target hangs off:
// the base identifier of selector/deref chains, or the package-level
// variable of a pkg.Var selector. Index expressions return nil — keyed
// accumulation (`m[k] += v` with distinct keys) is order-insensitive
// per key and out of scope here.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					return info.ObjectOf(x.Sel)
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// accumulatesShared reports whether decl's body performs a float
// accumulation into state that outlives the call: a package-level
// variable, a pointer-receiver or pointer-parameter target.
func accumulatesShared(decl *lint.FuncDecl) bool {
	found := false
	ast.Inspect(decl.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if lhs, ok := floatAccumLHS(decl.Pkg.Info, as); ok && escapesCallee(decl, lhs) {
			found = true
		}
		return !found
	})
	return found
}

// escapesCallee reports whether the accumulation target lhs outlives a
// call of decl: it is a package-level variable (of this or another
// package) or reached through a pointer receiver/parameter. Targets
// local to the body — including value receivers and value parameters,
// which are copies — do not escape.
func escapesCallee(decl *lint.FuncDecl, lhs ast.Expr) bool {
	info := decl.Pkg.Info
	deref := false
	e := lhs
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.StarExpr:
			deref = true
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					return true
				}
			}
			e = x.X
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil {
				return false
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == decl.Pkg.Types.Scope() {
				return true
			}
			body := decl.Decl.Body
			if obj.Pos() >= body.Pos() && obj.Pos() < body.End() {
				return false
			}
			if deref {
				return true
			}
			_, isPtr := obj.Type().Underlying().(*types.Pointer)
			return isPtr
		default:
			return false
		}
	}
}

// isFloat reports whether t is a floating-point or complex basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// render prints e for diagnostics.
func render(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "the target"
	}
	return b.String()
}

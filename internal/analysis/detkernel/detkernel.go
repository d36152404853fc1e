// Package detkernel checks the bit-identical kernel packages (rwr,
// vecmath, bca, core hot paths) for nondeterminism sources the type system
// cannot see. The exactness lineage of the reproduction — every
// parallel/batched/sharded path bit-identical to the scalar engine — dies
// the moment a kernel:
//
//   - draws from the global math/rand source or a time-seeded one
//     (run-to-run nondeterminism; kernels must take explicit seeds or a
//     caller-provided *rand.Rand — the PR 8 contract);
//   - accumulates floating point while ranging over a map (iteration
//     order varies per run, and float addition does not commute in
//     rounding);
//   - accumulates floating point from channel receives (worker completion
//     order is scheduler-dependent — partials must be merged in ascending
//     block order by the blessed block-reduce helpers instead);
//   - starts a goroutine of its own: every fan-out goes through vecmath's
//     Parallel and ForEach, which join what they start and pick a failed
//     pool's error deterministically, so vecmath is the one package in
//     scope allowed a go statement.
package detkernel

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detkernel",
	Doc:  "kernel packages must be deterministic: no ambient rand, no map-order or channel-order float reductions, no goroutines outside vecmath's fan-out helper",
	Run:  run,
}

// helperPkg is the package whose Parallel and ForEach start every kernel
// goroutine.
const helperPkg = "repro/internal/vecmath"

// globalRandFuncs are the math/rand package-level functions backed by the
// process-global (randomly seeded) source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkRand(pass, f)
		checkMapRangeAccum(pass, f)
		checkChannelAccum(pass, f)
		if pass.Pkg.Path() != helperPkg {
			checkGo(pass, f)
		}
	}
	return nil
}

// checkGo flags every go statement.
func checkGo(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(st.Pos(), "kernel starts a goroutine — fan out through vecmath.Parallel or vecmath.ForEach instead")
		}
		return true
	})
}

// checkRand flags global math/rand draws and time-seeded sources.
func checkRand(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if isRandPkg(fn.Pkg().Path()) && fn.Type().(*types.Signature).Recv() == nil {
			if globalRandFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "kernel uses the global %s.%s source — kernels must draw from an explicitly seeded *rand.Rand passed by the caller",
					fn.Pkg().Path(), fn.Name())
			}
			if fn.Name() == "NewSource" || fn.Name() == "New" || fn.Name() == "NewPCG" || fn.Name() == "NewChaCha8" {
				if tc := findAmbientEntropy(pass, call); tc != "" {
					pass.Reportf(call.Pos(), "kernel seeds a rand source from %s — seeds must be explicit caller-provided values so runs are reproducible", tc)
				}
			}
		}
		return true
	})
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// findAmbientEntropy reports the first ambient-entropy call (time.Now,
// os.Getpid, crypto/rand reads) inside the expression tree, or "".
func findAmbientEntropy(pass *analysis.Pass, root ast.Node) string {
	found := ""
	ast.Inspect(root, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "time" && fn.Name() == "Now":
			found = "time.Now"
		case fn.Pkg().Path() == "os" && (fn.Name() == "Getpid" || fn.Name() == "Getppid"):
			found = "os." + fn.Name()
		case fn.Pkg().Path() == "crypto/rand":
			found = "crypto/rand." + fn.Name()
		}
		return true
	})
	return found
}

// checkMapRangeAccum flags float accumulation into an outer variable
// inside a range over a map.
func checkMapRangeAccum(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		reportFloatAccum(pass, rng.Body, rng.Body.Pos(),
			"float accumulation inside a map range — iteration order is nondeterministic and float addition does not commute in rounding; accumulate over a sorted key slice instead")
		return true
	})
}

// checkChannelAccum flags float accumulation whose right-hand side
// receives from a channel, and float accumulation inside a range over a
// channel — both merge worker partials in completion order.
func checkChannelAccum(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			tv, ok := pass.Info.Types[st.X]
			if !ok {
				return true
			}
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				reportFloatAccum(pass, st.Body, st.Body.Pos(),
					"float accumulation inside a channel range — receive order is scheduler-dependent; merge worker partials in ascending block order (block-reduce) instead")
			}
		case *ast.AssignStmt:
			if !isAccumAssign(st) || !lhsIsFloat(pass, st.Lhs[0]) {
				return true
			}
			if containsReceive(st.Rhs[0]) {
				pass.Reportf(st.Pos(), "float accumulation from a channel receive — receive order is scheduler-dependent; merge worker partials in ascending block order (block-reduce) instead")
			}
		}
		return true
	})
}

// reportFloatAccum reports every accumulating assignment into a float
// variable declared OUTSIDE the given body.
func reportFloatAccum(pass *analysis.Pass, body *ast.BlockStmt, bodyPos token.Pos, msg string) {
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || !isAccumAssign(st) {
			return true
		}
		lhs := st.Lhs[0]
		if !lhsIsFloat(pass, lhs) {
			return true
		}
		if declaredWithin(pass, lhs, bodyPos, body.End()) {
			return true
		}
		pass.Reportf(st.Pos(), "%s", msg)
		return true
	})
}

// isAccumAssign matches x += e, x -= e, x *= e (order-sensitive in floats).
func isAccumAssign(st *ast.AssignStmt) bool {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		return len(st.Lhs) == 1
	}
	return false
}

func lhsIsFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// declaredWithin reports whether the assigned variable is declared inside
// [lo, hi) — a loop-local accumulator is order-safe because it never
// escapes one iteration's scope... except it does across iterations; what
// matters is whether it outlives the loop. An identifier declared inside
// the body cannot.
func declaredWithin(pass *analysis.Pass, e ast.Expr, lo, hi token.Pos) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false // selector/index targets live outside by construction
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() < hi
}

// containsReceive reports whether the expression contains <-ch.
func containsReceive(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			found = true
			return false
		}
		return !found
	})
	return found
}

// Package lockguard enforces `// guarded by <mu>` field annotations: a
// struct field annotated as guarded may only be accessed in functions
// that demonstrably hold the named mutex. The check is intra-procedural
// and deliberately conservative — it asks "does this function acquire the
// guard anywhere?" rather than proving the lock is held at the exact
// access — which is cheap, has no false negatives for the straight-line
// locking this codebase uses, and turns silent lock-discipline erosion
// into a build failure.
//
// Annotation syntax: a field whose doc or line comment contains
// "guarded by <name>" (case-insensitive "guarded"), where <name> is a
// sibling field of type sync.Mutex, sync.RWMutex or a pointer to one.
// Example:
//
//	mu    sync.Mutex
//	queue []*editBatch // guarded by mu
//
// An access is accepted when any of these hold in the enclosing function
// (function literals inherit their enclosing function's evidence):
//
//   - the function locks the same base's guard (s.mu.Lock / s.mu.RLock);
//   - the base object was freshly constructed from a composite literal in
//     this function and so cannot yet be shared.
//
// Everything else is a finding. Contracts the analyzer cannot see (a
// method documented "caller must hold mu") are suppressed at the access
// with //rtklint:ignore lockguard <reason>, which keeps every exception
// written down next to the code it excuses.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `guarded by <mu>` may only be accessed with the named mutex held",
	Run:  run,
}

var guardRe = regexp.MustCompile(`(?i)guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardInfo ties one guarded field to its guard field within a struct.
type guardInfo struct {
	field *types.Var // the guarded field
	guard *types.Var // the mutex field protecting it
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	guardVars := map[*types.Var]bool{}
	for _, gi := range guards {
		guardVars[gi.guard] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, guards, guardVars)
		}
	}
	return nil
}

// collectGuards parses the annotations in every struct declaration,
// reporting malformed ones, and returns guarded-field → guard mappings.
func collectGuards(pass *analysis.Pass) map[*types.Var]guardInfo {
	out := map[*types.Var]guardInfo{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			// First index the struct's fields by name so guard names
			// resolve to their *types.Var.
			byName := map[string]*types.Var{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						byName[name.Name] = v
					}
				}
			}
			for _, field := range st.Fields.List {
				guardName := annotation(field)
				if guardName == "" {
					continue
				}
				guard, ok := byName[guardName]
				if !ok {
					pass.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a field of this struct", guardName)
					continue
				}
				if !isMutexType(guard.Type()) {
					pass.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a sync.Mutex/RWMutex", guardName)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						out[v] = guardInfo{field: v, guard: guard}
					}
				}
			}
			return true
		})
	}
	return out
}

// annotation extracts the guard name from a field's comments, or "".
func annotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// isMutexType accepts sync.Mutex, sync.RWMutex and pointers to them.
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return analysis.IsNamedType(t, "sync", "Mutex") || analysis.IsNamedType(t, "sync", "RWMutex")
}

// acqKey is one piece of locking evidence: the rendered base expression
// and the guard it acquires.
type acqKey struct {
	base  string
	guard *types.Var
}

// acquisitions scans a function body (function literals included — they
// inherit the enclosing evidence by construction of the flat walk) for
// base.guard.Lock() and base.guard.RLock() calls.
func acquisitions(pass *analysis.Pass, body *ast.BlockStmt, guardVars map[*types.Var]bool) map[acqKey]bool {
	out := map[acqKey]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		guard, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.Info.Selections[guard]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok && guardVars[v] {
				out[acqKey{base: types.ExprString(ast.Unparen(guard.X)), guard: v}] = true
			}
		}
		return true
	})
	return out
}

// checkFunc verifies every guarded-field access in one function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guards map[*types.Var]guardInfo, guardVars map[*types.Var]bool) {
	acq := acquisitions(pass, fd.Body, guardVars)
	fresh := freshObjects(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.Info.Selections[sel]
		if s == nil {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		gi, guarded := guards[v]
		if !guarded {
			return true
		}
		base := ast.Unparen(sel.X)
		if id, ok := base.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && fresh[obj] {
				return true
			}
		}
		if acq[acqKey{base: types.ExprString(base), guard: gi.guard}] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(), "%s is guarded by %s, but %s neither locks %s.%s nor constructed %s here; hold the lock or suppress with an //rtklint:ignore lockguard <reason> stating the contract",
			v.Name(), gi.guard.Name(), funcLabel(fd), types.ExprString(base), gi.guard.Name(), types.ExprString(base))
		return true
	})
}

// freshObjects returns local objects bound to composite literals in this
// function — values that cannot be shared with another goroutine yet.
func freshObjects(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		r := ast.Unparen(rhs)
		if un, ok := r.(*ast.UnaryExpr); ok && un.Op == token.AND {
			r = ast.Unparen(un.X)
		}
		if _, ok := r.(*ast.CompositeLit); !ok {
			return
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i := range st.Lhs {
				bind(st.Lhs[i], st.Rhs[i])
			}
		case *ast.ValueSpec:
			if len(st.Names) != len(st.Values) {
				return true
			}
			for i := range st.Names {
				bind(st.Names[i], st.Values[i])
			}
		}
		return true
	})
	return out
}

func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return "method " + fd.Name.Name
	}
	return "function " + fd.Name.Name
}

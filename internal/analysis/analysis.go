// Package analysis is the project's static-analysis framework: the
// scaffolding under cmd/rtklint, the multichecker that machine-checks the
// repo's determinism, locking and durability invariants.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis — an
// Analyzer owns a Run function over a Pass carrying the type-checked
// package — but is built on the standard library alone (go/ast, go/types,
// and `go list -export` for dependency type information), because this
// repository vendors no third-party modules. If x/tools ever becomes
// available, each analyzer's Run ports over mechanically.
//
// The invariants the hosted analyzers enforce, and why they exist, are
// documented in README.md ("Static analysis & invariants") and on each
// analyzer package. Findings can be suppressed — narrowly, with a written
// reason — by a `//rtklint:ignore <analyzer> <reason>` comment on the
// flagged line or the line above it; see suppress.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rtklint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is the one-line invariant statement shown by `rtklint -list`.
	Doc string
	// Run reports the analyzer's findings for one package via
	// Pass.Report. A returned error aborts the whole rtklint run — it
	// means the analyzer itself failed, not that the code has findings.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files, comments included.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Run applies one analyzer to one loaded package and returns its findings
// with suppression directives applied: suppressed findings are dropped,
// and malformed directives are themselves reported as findings (a
// suppression without a reason is exactly the silent hole the directive
// syntax exists to prevent).
func Run(a *Analyzer, pkg *Pkg) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
	}
	kept, malformed := filterSuppressed(pkg.Fset, pkg.Files, a.Name, pass.diags)
	kept = append(kept, malformed...)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// derefType unwraps pointers from t.
func derefType(t types.Type) types.Type {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// IsNamedType reports whether t (after deref) is the named type
// pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := derefType(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// CalleeFunc resolves the called function or method object of a call
// expression, or nil when the callee is not a statically known func (a
// func-typed variable, a conversion, a builtin).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// Package rtklint assembles the project's scoped analyzer suite and runs
// it over loaded packages. Both the cmd/rtklint driver and the self-check
// test (which asserts the repo itself is clean) use this package, so the
// rules enforced in CI and the rules tested are one definition.
package rtklint

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/detkernel"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/seedflow"
	"repro/internal/analysis/syncerr"
)

// Suite is the full scoped analyzer suite. Scopes follow the invariants:
// syncerr guards the durability packages, detkernel the bit-identical
// kernels, lockguard applies everywhere annotations appear, and seedflow
// applies everywhere except the dataset generator (which owns the seed flag
// itself).
func Suite() []analysis.Scoped {
	return []analysis.Scoped{
		{Analyzer: syncerr.Analyzer, Match: analysis.OneOf(
			"repro/internal/wal",
			"repro/internal/serve",
		)},
		{Analyzer: detkernel.Analyzer, Match: analysis.OneOf(
			"repro/internal/rwr",
			"repro/internal/vecmath",
			"repro/internal/bca",
			"repro/internal/core",
		)},
		{Analyzer: lockguard.Analyzer},
		{Analyzer: seedflow.Analyzer, Match: analysis.AllBut(
			"repro/internal/gen",
		)},
	}
}

// Finding is one printed diagnostic.
type Finding struct {
	File    string
	Line    int
	Col     int
	Message string // includes the trailing "(analyzer)" tag
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.File, f.Line, f.Col, f.Message)
}

// Run loads the packages matching patterns (resolved from dir) and applies
// every in-scope analyzer, returning findings sorted by position.
// Malformed suppression directives are reported once, not once per
// analyzer that scanned the file.
func Run(dir string, suite []analysis.Scoped, patterns []string) ([]Finding, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, s := range suite {
			if !s.Applies(pkg.ImportPath) {
				continue
			}
			diags, err := analysis.Run(s.Analyzer, pkg)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				p := pkg.Fset.Position(d.Pos)
				key := fmt.Sprintf("%s:%d:%d:%s", p.Filename, p.Line, p.Column, d.Message)
				if seen[key] {
					continue
				}
				seen[key] = true
				findings = append(findings, Finding{
					File: p.Filename, Line: p.Line, Col: p.Column,
					Message: fmt.Sprintf("%s (%s)", d.Message, d.Analyzer),
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return findings, nil
}

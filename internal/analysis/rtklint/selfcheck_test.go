package rtklint

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot locates the repo root via the go tool, so the test works from
// any package directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(out.String())
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// TestRepoIsClean is the meta-check: the repository must satisfy its own
// invariants. Every finding here is either a real bug to fix or a contract
// to suppress with a written reason — never something to ignore, because
// CI runs exactly this suite via cmd/rtklint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repo")
	}
	findings, err := Run(moduleRoot(t), Suite(), []string{"./..."})
	if err != nil {
		t.Fatalf("rtklint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("repo violates its own invariants: %d findings", len(findings))
	}
}

// TestSuiteScopes pins the analyzer-to-package scoping: the durability
// checker watches the journal and serving layer, the determinism checker
// watches the kernels, and the generator keeps its seed-flag exemption.
func TestSuiteScopes(t *testing.T) {
	byName := map[string]int{}
	suite := Suite()
	for i, s := range suite {
		byName[s.Analyzer.Name] = i
	}
	for name, want := range map[string]struct{ in, out string }{
		"syncerr":   {"repro/internal/wal", "repro/internal/rwr"},
		"detkernel": {"repro/internal/rwr", "repro/internal/serve"},
		"seedflow":  {"repro/internal/serve", "repro/internal/gen"},
	} {
		i, ok := byName[name]
		if !ok {
			t.Fatalf("suite is missing %s", name)
		}
		if !suite[i].Applies(want.in) {
			t.Errorf("%s does not apply to %s", name, want.in)
		}
		if suite[i].Applies(want.out) {
			t.Errorf("%s wrongly applies to %s", name, want.out)
		}
	}
	i, ok := byName["lockguard"]
	if !ok {
		t.Fatal("suite is missing lockguard")
	}
	if !suite[i].Applies("repro/internal/serve") || !suite[i].Applies("repro/internal/lbindex") {
		t.Error("lockguard must apply repo-wide")
	}
}

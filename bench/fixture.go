package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// scale fixes every size the benchmark uses. "full" is what BENCHMARK.json
// is calibrated at; "tiny" exists so the smoke test can run every code path
// of the harness in a few seconds. The sizes are constants, not knobs: two
// runs compare only if they answered the same requests on the same graphs.
type scale struct {
	webN, webB       int // web-cold, web-hot, web-edits fixture
	socialN, socialB int // social-mixed fixture
	oracleN          int // brute-force oracle fixture
	maxK             int // index K on every fixture

	// Requests per second of pass length in the closed-loop lists, frozen at
	// about four fifths of what the seed code sustains (see harness.plan).
	coldRate, mixedRate, hotRate, editReadRate int

	hotKeys       int // web-hot distinct (q,k) cache keys
	editWarmNodes int // web-edits nodes queried once before the first edit
	editsPerSec   int // web-edits writer's open-loop batch rate
	editBatch     int // edits per batch
	ckptBatches   int // -checkpoint-batches on web-edits

	oraclePairs  int // gate (a)
	gateSample   int // gate (b) served answers re-computed in-process
	gateDeep     int // of which re-checked by independent forward solves
	gateDeepEach int // members / non-members re-checked per deep answer
	gateApprox   int // gate (c)
	gateRecovery int // gate (d) query bodies compared across the SIGKILL
}

var scales = map[string]scale{
	"full": {
		webN: 16384, webB: 48, socialN: 4096, socialB: 32, oracleN: 1024, maxK: 32,
		coldRate: 100, mixedRate: 140, hotRate: 11000, editReadRate: 80,
		hotKeys: 128, editWarmNodes: 64, editsPerSec: 4, editBatch: 8, ckptBatches: 6,
		oraclePairs: 12, gateSample: 64, gateDeep: 8, gateDeepEach: 32, gateApprox: 16, gateRecovery: 32,
	},
	"tiny": {
		webN: 1024, webB: 8, socialN: 1024, socialB: 8, oracleN: 256, maxK: 32,
		coldRate: 300, mixedRate: 50, hotRate: 8000, editReadRate: 150,
		hotKeys: 32, editWarmNodes: 16, editsPerSec: 8, editBatch: 4, ckptBatches: 3,
		oraclePairs: 12, gateSample: 16, gateDeep: 2, gateDeepEach: 8, gateApprox: 8, gateRecovery: 8,
	},
}

// fixtureSpec names one (graph, index) pair built by the real rtkgen and
// rtkindex binaries.
type fixtureSpec struct {
	name string
	kind string // rtkgen -kind
	n, b int
}

func (sc scale) web() fixtureSpec    { return fixtureSpec{"web", "web", sc.webN, sc.webB} }
func (sc scale) social() fixtureSpec { return fixtureSpec{"social", "social", sc.socialN, sc.socialB} }
func (sc scale) oracle() fixtureSpec { return fixtureSpec{"oracle", "web", sc.oracleN, 8} }

type fixture struct {
	spec      fixtureSpec
	graphPath string
	indexPath string
	indexMB   float64
}

// tools holds the paths of the binaries under test.
type tools struct{ gen, index, serve string }

// buildTools compiles the three commands from the checkout the harness runs
// in. The harness must be started from its own module directory (run.sh and
// `go run .` both do), because that is where the replace line resolving
// repro/... lives.
func buildTools(binDir string) (tools, error) {
	if raw, err := os.ReadFile("go.mod"); err != nil || !strings.Contains(string(raw), "module repro/bench") {
		return tools{}, fmt.Errorf("run the harness from the bench/ directory (no repro/bench go.mod in the working directory)")
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return tools{}, err
	}
	// -buildvcs=false: the binaries are the same whatever repository the
	// checkout does or does not sit in, and a parent .git the go command
	// cannot read would otherwise fail the build.
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", binDir+string(filepath.Separator),
		"repro/cmd/rtkgen", "repro/cmd/rtkindex", "repro/cmd/rtkserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return tools{}, fmt.Errorf("building the commands under test: %w\n%s", err, out)
	}
	return tools{
		gen:   filepath.Join(binDir, "rtkgen"),
		index: filepath.Join(binDir, "rtkindex"),
		serve: filepath.Join(binDir, "rtkserve"),
	}, nil
}

// buildFixture generates the graph and builds its index with the real
// binaries into dir. Fixtures are never reused across invocations: the
// index is a product of the code under test.
func buildFixture(t tools, spec fixtureSpec, maxK int, seed int64, dir string) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fixture{
		spec:      spec,
		graphPath: filepath.Join(dir, spec.name+".txt"),
		indexPath: filepath.Join(dir, spec.name+".idx"),
	}
	if out, err := exec.Command(t.gen, "-kind", spec.kind, "-n", strconv.Itoa(spec.n),
		"-seed", strconv.FormatInt(seed, 10), "-out", f.graphPath).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("rtkgen %s: %w\n%s", spec.name, err, out)
	}
	if out, err := exec.Command(t.index, "-graph", f.graphPath, "-out", f.indexPath,
		"-K", strconv.Itoa(maxK), "-B", strconv.Itoa(spec.b)).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("rtkindex %s: %w\n%s", spec.name, err, out)
	}
	st, err := os.Stat(f.indexPath)
	if err != nil {
		return nil, err
	}
	f.indexMB = float64(st.Size()) / (1 << 20)
	return f, nil
}

// loadGraph reads a fixture's edge list the way every command does.
func loadGraph(path string) (*graph.Graph, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	b, err := graph.ReadEdgeList(file)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", path, err)
	}
	return g, nil
}

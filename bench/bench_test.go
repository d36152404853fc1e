package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// resultLine is the driver's contract for the last line of standard output.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload, untraced and traced, at the tiny scale with
// the full correctness gate, and holds the printed JSON to the names and
// units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons; skipped in -short mode")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness's is %q", i, w.Name, workloads[i].name)
		}
	}
	sameDefs := func(what string, decl []struct{ Name, Unit string }, have []metricDef) {
		t.Helper()
		if len(decl) != len(have) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the harness prints %d", len(decl), what, len(have))
		}
		for i, d := range decl {
			if d.Name != have[i].name || d.Unit != have[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the harness %s (%s)", what, i, d.Name, d.Unit, have[i].name, have[i].unit)
			}
		}
	}
	sameDefs("end_to_end", decl.EndToEnd, endToEnd[:boundedMetrics])
	sameDefs("per_layer", decl.PerLayer, layerMetrics)

	build := t.TempDir()
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd[:boundedMetrics]}, {"1", layerMetrics}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scale", "tiny", "-seconds", "0.9", "-seed", "7", "-trace", mode.trace, "-build-dir", build}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-trace %s: exit code %d\n%s", mode.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != len(workloads) {
			t.Fatalf("-trace %s: %d result lines for %d workloads:\n%s", mode.trace, len(lines), len(workloads), stdout.String())
		}
		for i, line := range lines {
			var keys map[string]json.RawMessage
			var res resultLine
			if err := json.Unmarshal([]byte(line), &keys); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			name := workloads[i].name
			if len(keys) != 4 || res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
				t.Fatalf("%s -trace %s: result keys are not exactly correct, attempted, failed, metrics: %s", name, mode.trace, line)
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d\n%s", name, mode.trace, *res.Correct, *res.Attempted, *res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s -trace %s: %d metrics printed, %d declared", name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, def := range mode.defs {
				m, ok := res.Metrics[def.name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s -trace %s: metric %s missing", name, mode.trace, def.name)
				case m.Unit != def.unit:
					t.Errorf("%s -trace %s: metric %s has unit %q, want %q", name, mode.trace, def.name, m.Unit, def.unit)
				case mode.trace == "0" && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, def.name, *m.Value)
				}
			}
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join("out", "trace."+w.name+".json")); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

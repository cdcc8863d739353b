package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// restart run starts its child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// runTiny runs one workload at the tiny size and returns the printed
// report and its final JSON line.
func runTiny(t *testing.T, workload string, trace string) (string, result) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.3", "-trace", trace,
		"-size", "tiny", "-root", t.TempDir()}
	if code := run(args, &out); code != 0 {
		t.Fatalf("%s: exit code %d\n%s", workload, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return out.String(), res
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayerNames []string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for i, m := range b.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
		if i >= len(perLayer) || perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("BENCHMARK.json per_layer[%d] = %s (%s), want the perLayer table's entry", i, m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per_layer metrics, the perLayer table %d", len(b.PerLayer), len(perLayer))
	}
	return endToEnd, perLayerNames
}

// The workloads' own metric names, as the report prints them.
var namedMetrics = map[string][]string{
	"compile": {"setup_s", "compile_s", "func_p50_ms", "func_p90_ms", "peak_rss_mb", "error_rate"},
	"restart": {"setup_s", "cold_start_s", "warm_start_ms", "store_mb", "peak_rss_mb", "error_rate"},
	"serve":   {"setup_s", "serve_qps", "batch_p50_us", "batch_p90_us", "batch_p99_us", "peak_rss_mb", "error_rate"},
}

// exactCounts are per-layer counts that must repeat exactly for the same
// seed.
var exactCounts = map[string][]string{
	"compile": {"regalloc.rounds", "regalloc.spills", "oracle.queries", "destruct.queries", "engine.builds", "engine.rebuilds"},
	"restart": {"snapshot.hits", "snapshot.section_scans", "snapshot.section_skips", "snapshot.stores", "snapshot.stored_bytes"},
}

func TestWorkloadsTiny(t *testing.T) {
	endToEnd, layerNames := benchmarkJSON(t)
	for _, w := range []string{"compile", "restart", "serve"} {
		t.Run(w, func(t *testing.T) {
			text, res := runTiny(t, w, "0")
			for _, name := range endToEnd {
				m, ok := res.Metrics[name]
				if !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run printed %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, name := range namedMetrics[w] {
				if !strings.Contains(text, "\n"+name+" ") {
					t.Errorf("report does not print %s", name)
				}
			}
			if !strings.Contains(text, "\nerror_rate                                0 ratio") {
				t.Errorf("error_rate is not 0:\n%s", text)
			}

			var traced [2]result
			for i := range traced {
				_, traced[i] = runTiny(t, w, "1")
				if len(traced[i].Metrics) != len(layerNames) {
					t.Errorf("traced run printed %d metrics, want %d", len(traced[i].Metrics), len(layerNames))
				}
			}
			for _, name := range exactCounts[w] {
				a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
				if a != b {
					t.Errorf("%s = %v then %v, want an exact repeat", name, a, b)
				}
			}
			switch w {
			case "compile":
				if v := traced[0].Metrics["engine.rebuilds"].Value; v != 0 {
					t.Errorf("checker pipeline paid %v rebuilds, want 0", v)
				}
				if traced[0].Metrics["regalloc.rounds"].Value < 1 || traced[0].Metrics["oracle.queries"].Value < 1 {
					t.Errorf("compile trace counted no allocator rounds or queries")
				}
			case "restart":
				if s, k := traced[0].Metrics["snapshot.section_scans"].Value, traced[0].Metrics["snapshot.section_skips"].Value; s != 3 || k != 2 {
					t.Errorf("warm hits scan %v and skip %v sections each, want 3 and 2", s, k)
				}
			}
		})
	}
}

// TestOutsideCheckout pins the contract's failure mode: in a directory
// holding only the benchmark, the runner exits non-zero without a result.
func TestOutsideCheckout(t *testing.T) {
	dir := t.TempDir()
	buf, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "compile", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err == nil {
		t.Fatalf("runner succeeded outside a checkout:\n%s", out.String())
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("runner printed a result outside a checkout:\n%s", out.String())
	}
}

package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the catalogue must
// match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON holds the metric and workload
// names the program emits to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !sameSet(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	check := func(kind string, defs []metricDef, declared map[string]string) {
		if len(defs) != len(declared) {
			t.Errorf("%s: %d metrics emitted, %d declared", kind, len(defs), len(declared))
		}
		for _, d := range defs {
			if u, ok := declared[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] declared as %q (present=%v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layers)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

// profileCovers lists the workloads whose CPU profile sees their whole
// CPU, so the module values must sum to within 5 % of the traced run's
// CPU per op. The live proxy's is missing: its 1 ms clock pumps run in
// bursts shorter than the kernel tick that checks profiling timers, and
// its profile covers only 70 to 92 % of its CPU. The test logs that
// coverage instead.
var profileCovers = map[string]bool{"table1-campaign": true}

// TestWorkloadsSmoke runs every workload, untraced and traced, at the
// shortest length whose traced run still collects CPU samples on the
// live proxy (a tenth of a CPU busy), and checks that the result line
// is correct and carries every catalogue metric with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1.5, trace: traced, nproc: runtime.NumCPU()}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			line, err := resultLine(cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var res resultJSON
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, out.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			// The module values are raw profile samples; where the
			// profile sees all the CPU they must add up to it.
			var sum float64
			for _, m := range cpuModules {
				sum += res.Metrics["cpu_us_per_op."+m].Value
			}
			total := res.Metrics["trace.cpu_us_per_op"].Value
			if !profileCovers[name] {
				t.Logf("%s: module CPU sums to %.1f µs/op of %.1f (profile coverage %.0f %%)",
					name, sum, total, res.Metrics["trace.profile_coverage_pct"].Value)
				continue
			}
			if sum < 0.95*total || sum > 1.05*total {
				t.Errorf("%s: module CPU sums to %.1f µs/op, traced run used %.1f", name, sum, total)
			}
		}
	}
}

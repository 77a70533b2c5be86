// Command perfbench is the repository benchmark. It drives two
// workloads from outside the program — the Table 1 campaign and a live
// intangd proxy fetch loop — checks their outputs, and prints one JSON
// result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones (CPU and mutex
// profiles, wrapped interfaces, the program's own counters). The line
// before the result carries the run's provenance (seed, nproc,
// GOMAXPROCS, Go version, commit).
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload table1-campaign --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
}

// measure is how long the run's measured phase lasts.
func (c config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload hands back: the op accounting behind the
// result line's correct/attempted/failed, plus metric values by name
// (units come from the catalogue in metrics.go).
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// notes are human-readable diagnostics printed to stderr.
	notes []string
}

type workloadFunc func(config) (outcome, error)

var workloads = map[string]workloadFunc{
	"table1-campaign": runTable1,
	"intangd-fetch":   runFetch,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or \"all\" ("+fmt.Sprint(workloadNames())+")")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q (have %v and all)", cfg.workload, workloadNames())
	}
	out, err := fn(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "%s: %s\n", cfg.workload, n)
	}
	line, err := resultLine(cfg, out)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	meta, _ := json.Marshal(provenance(cfg))
	fmt.Println(string(meta))
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// resultLine renders the contract's last line: exactly the catalogue's
// metrics for this mode, each with its unit.
func resultLine(cfg config, out outcome) ([]byte, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return json.Marshal(res)
}

// provenance is the line printed before the result.
func provenance(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{"meta": map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}}
}

// runAll runs every workload in its own process (peak heap is a
// per-process high-water mark) and prints each metric by name with its
// unit. It returns the exit code: non-zero if any workload failed or
// reported incorrect output.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("locate own binary: %v", err)
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, "--workload", name,
			"--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64),
			"--trace", map[bool]string{false: "0", true: "1"}[cfg.trace])
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Printf("%s: %v\n", name, err)
			code = 1
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		last := lines[len(lines)-1]
		var res resultJSON
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Printf("%s: bad result line: %v\n", name, err)
			code = 1
			continue
		}
		fmt.Printf("%s  correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		if !res.Correct {
			code = 1
		}
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := res.Metrics[k]
			fmt.Printf("  %-36s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
	return code
}

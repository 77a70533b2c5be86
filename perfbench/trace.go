package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// tracer brackets a traced phase with a CPU profile, a mutex profile
// and the phase's own wall/CPU/allocation accounting.
type tracer struct {
	cpu bytes.Buffer
	ph  *phase
}

func startTrace() (*tracer, error) {
	t := &tracer{}
	t.ph = startPhase()
	// pprof's default 100 Hz: Linux checks per-thread CPU timers at the
	// scheduler tick, so faster rates silently drop samples and the
	// profile would no longer add up to the process's CPU time.
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	runtime.SetMutexProfileFraction(1)
	return t, nil
}

// traceResult is a finished traced phase.
type traceResult struct {
	ph    *phase
	cpu   *profile
	mutex *profile
}

func (t *tracer) stop() (*traceResult, error) {
	// The phase ends before the profiler flushes: encoding the profile
	// is CPU no sample records.
	t.ph.stop()
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	var mb bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&mb, 0); err != nil {
		return nil, fmt.Errorf("mutex profile: %w", err)
	}
	cpu, err := parseProfile(t.cpu.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	mu, err := parseProfile(mb.Bytes())
	if err != nil {
		return nil, fmt.Errorf("mutex profile: %w", err)
	}
	return &traceResult{ph: t.ph, cpu: cpu, mutex: mu}, nil
}

// cumulative names the functions whose inclusive CPU the traced run
// reports, by metric.
var cumulative = map[string][]string{
	"cpu_us_per_op.trial_build":   {"intango/internal/experiment.(*Runner).build"},
	"cpu_us_per_op.rng_seed":      {"math/rand.NewSource"},
	"cpu_us_per_op.matcher_build": {"intango/internal/dpi.NewMatcher"},
	"cpu_us_per_op.sim_step":      {"intango/internal/netem.(*Simulator).Step"},
	"cpu_us_per_op.clock_pump": {
		"intango/internal/intangd.(*Proxy).clockPump",
		"intango/internal/device/uis.(*Stack).clockPump",
	},
}

// fill writes the profile-derived per-layer metrics for ops operations
// into v. untracedCPU is the CPU per op (µs) of the same workload run
// untraced in the same process, the base of the tracing overhead.
//
// The CPU values are the profile's samples as they are, not rescaled to
// the phase's getrusage CPU. Linux checks the profiling timers only at
// its scheduler tick, so a thread that runs in short bursts between
// sleeps loses samples: the campaign profiles cover about 99 % of their
// CPU, the live proxy's — two 1 ms clock pumps — 70 to 92 %.
// trace.profile_coverage_pct reports that coverage, so the modules sum
// to it as a share of trace.cpu_us_per_op, and the CPU no sample saw is
// left unattributed rather than spread over every module.
func (r *traceResult) fill(v map[string]float64, ops int, untracedCPU float64) error {
	if ops < 1 {
		return fmt.Errorf("traced phase completed no op")
	}
	parts, err := attributeCPU(r.cpu)
	if err != nil {
		return err
	}
	var sampled int64
	for _, ns := range parts {
		sampled += ns
	}
	if sampled == 0 {
		return fmt.Errorf("cpu profile holds no samples")
	}
	cpu := float64(r.ph.cpu.Nanoseconds())
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(ops) }
	for m, ns := range parts {
		v["cpu_us_per_op."+m] = perOp(ns)
	}
	for name, fns := range cumulative {
		ns, err := cumulativeCPU(r.cpu, fns...)
		if err != nil {
			return err
		}
		v[name] = perOp(ns)
	}
	waits, err := lockWaits(r.mutex)
	if err != nil {
		return err
	}
	v["intangd.world_lock_wait_us_per_op"] = float64(waits["intangd.world"]) / 1e3 / float64(ops)
	v["uis.lock_wait_us_per_op"] = float64(waits["uis"]) / 1e3 / float64(ops)
	traced := cpu / 1e3 / float64(ops)
	v["trace.ops"] = float64(ops)
	v["trace.cpu_us_per_op"] = traced
	v["trace.profile_coverage_pct"] = 100 * float64(sampled) / cpu
	v["trace.overhead_pct"] = 100 * (traced - untracedCPU) / untracedCPU
	return nil
}

// splitTraced divides a traced run's measuring time: a third untraced
// (the overhead base), two thirds traced.
func splitTraced(d time.Duration) (untraced, traced time.Duration) {
	return d / 3, d - d/3
}

// perOpUs is a measured stretch's CPU per op in µs.
func perOpUs(m e2e) float64 {
	return float64(m.ph.cpu.Nanoseconds()) / 1e3 / float64(max(m.attempted, 1))
}

package main

// metricDef names one reported metric and its unit. The two lists are
// the catalogue BENCHMARK.json declares; the smoke test holds them to
// it.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported with tracing
// off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"peak_heap_mb", "MB"},
	{"ok_frac", "ratio"},
}

// cpuModules partitions a traced run's CPU: each layer under internal/
// the workloads exercise, plus the random-number generator, the garbage
// collector, the benchmark's own load generator (its code and the
// net/http client) and everything else in the runtime.
var cpuModules = []string{
	"experiment", "topo", "censor", "dpi", "gfw", "middlebox", "netem",
	"tcpstack", "core", "packet", "appsim", "obs", "device", "uis",
	"intangd", "rand", "gc", "loadgen", "runtime_other",
}

// perLayer is what the traced run reports. A metric of a layer the
// workload never crosses, or that the program does not expose on that
// workload's path, reads 0 (see README.md for the map).
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Build side: experiment, topo, censor, dpi, math/rand.
		{"experiment.build_us_p50", "us"},
		{"experiment.trial_us_p50", "us"},
		{"experiment.trial_us_p99", "us"},
		{"cpu_us_per_op.trial_build", "us"},
		{"cpu_us_per_op.rng_seed", "us"},
		{"cpu_us_per_op.matcher_build", "us"},
		// Per-packet simulation: netem, tcpstack, gfw, middlebox.
		{"cpu_us_per_op.sim_step", "us"},
		{"netem.events_per_op", "count"},
		{"netem.pkts_per_op", "count"},
		{"netem.queue_drops_per_op", "count"},
		{"tcpstack.retransmits_per_op", "count"},
		{"gfw.detects_per_op", "count"},
		{"middlebox.drops_per_op", "count"},
		// Memory: packet pool and the runtime.
		{"packet.pool_recycle_pct", "%"},
		{"packet.pool_news_per_op", "count"},
		// Strategy: core, through the wrapped factory.
		{"core.outbound_calls_per_op", "count"},
		{"core.outbound_ns_per_call", "ns"},
		{"core.emissions_per_op", "count"},
		// Live path: device, device/uis, intangd.
		{"uis.dial_ms_p50", "ms"},
		{"intangd.ttfb_ms_p50", "ms"},
		{"device.write_us_p50", "us"},
		{"device.read_wait_ms_per_op", "ms"},
		{"device.pkts_out_per_op", "count"},
		{"device.pkts_in_per_op", "count"},
		{"device.drops", "count"},
		{"intangd.pkts_per_op", "count"},
		{"intangd.flows_open", "count"},
		{"censor.resets_per_op", "count"},
		{"intangd.world_lock_wait_us_per_op", "us"},
		{"uis.lock_wait_us_per_op", "us"},
		{"cpu_us_per_op.clock_pump", "us"},
		{"packet.parse_ns_per_pkt", "ns"},
		{"packet.serialize_ns_per_pkt", "ns"},
		// Whole program.
		{"trace.ops", "count"},
		{"trace.cpu_us_per_op", "us"},
		{"trace.profile_coverage_pct", "%"},
		{"trace.overhead_pct", "%"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu_us_per_op." + m, "us"})
	}
	return defs
}()

// zeroPerLayer returns every per-layer metric at 0, the starting point
// each workload fills in.
func zeroPerLayer() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

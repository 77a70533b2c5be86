package experiment

// The persistent benchmark harness behind `make bench`: it measures the
// trial hot path and the serial/parallel campaign loops in-process (via
// testing.Benchmark, so the numbers are directly comparable with
// `go test -bench`), embeds the pre-pooling seed baseline, and renders
// the whole thing as BENCH_netem.json so regressions are a diff away.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"intango/internal/core"
	"intango/internal/dpi"
	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/packet"
)

// seedBaseline is the trial/campaign cost measured at this repo's
// pre-pooling parent commit (heap packets, container/heap event queue),
// on the reference container. It is embedded in every report so a
// single BENCH_netem.json answers "how far from the old cost are we?"
// without digging through git history.
func seedBaseline() BenchBaseline {
	return BenchBaseline{
		Commit: "994cc34 (pre-pooling seed)",
		Trial: BenchResult{
			NsPerOp:     109392,
			BytesPerOp:  80340,
			AllocsPerOp: 1069,
		},
		CampaignSerial: BenchResult{
			NsPerOp:     56981366,
			AllocsPerOp: 547502,
		},
		CampaignParallel: BenchResult{
			NsPerOp:     53374346,
			AllocsPerOp: 547516,
		},
	}
}

// BenchCampaignScale is the campaign shape the harness times: small
// enough to iterate in tens of milliseconds, large enough to exercise
// every strategy row and both keyword arms.
func BenchCampaignScale() Scale { return Scale{VPs: 3, Servers: 2, Trials: 1} }

// BenchResult is one measured benchmark, in go-test units.
type BenchResult struct {
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
}

// BenchBaseline pins the recorded pre-PR numbers a report is judged
// against.
type BenchBaseline struct {
	Commit           string      `json:"commit"`
	Trial            BenchResult `json:"trial"`
	CampaignSerial   BenchResult `json:"campaign_serial"`
	CampaignParallel BenchResult `json:"campaign_parallel"`
}

// BenchPoolStats mirrors packet.PoolStats with JSON names, plus the
// derived recycle count.
type BenchPoolStats struct {
	Gets     uint64 `json:"gets"`
	Puts     uint64 `json:"puts"`
	News     uint64 `json:"news"`
	Recycled uint64 `json:"recycled"`
}

// BenchReport is the schema of BENCH_netem.json.
type BenchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Seed      int64  `json:"seed"`

	Baseline BenchBaseline `json:"baseline"`

	// Trial is one RunOne (handshake, strategy volley, fetch,
	// classification) — the unit every campaign multiplies.
	Trial BenchResult `json:"trial"`
	// GoodputTrial is one bandwidth-constrained upload through the
	// congestion machinery (token-bucket shaper, finite queue, cwnd) —
	// the allocation cost of the goodput path when it is actually
	// exercised. Absent from pre-congestion reports.
	GoodputTrial BenchResult `json:"goodput_trial,omitempty"`
	// CampaignSerial/CampaignParallel run the full Table 1 strategy
	// grid at BenchCampaignScale per op.
	CampaignSerial   BenchResult `json:"campaign_serial"`
	CampaignParallel BenchResult `json:"campaign_parallel"`

	// TrialsPerCampaignOp is the trial count behind the campaign
	// trials_per_sec figures.
	TrialsPerCampaignOp int `json:"trials_per_campaign_op"`

	// Pool is the serial campaign runner's packet-pool traffic.
	Pool BenchPoolStats `json:"pool"`

	// Layers holds the substrate micro-benchmarks (event dispatch, DPI
	// scan, censor per-packet processing, packet serialize/parse) by
	// benchmark name, so a trial-level change can be attributed to the
	// layer that moved. Absent from older reports.
	Layers map[string]BenchResult `json:"layers,omitempty"`

	// TrialSplit divides the hot-path trial's wall time between
	// building its rig and running it, for RunOne's fresh arena per
	// trial ("fresh-arena", the Trial figure's path) and a campaign
	// worker's one reused arena ("worker-arena"). Absent from older
	// reports.
	TrialSplit map[string]BenchSplit `json:"trial_split,omitempty"`

	// AllocReductionPct is 100*(1 - trial allocs / baseline trial
	// allocs): the headline number the pooling work is judged by.
	AllocReductionPct float64 `json:"alloc_reduction_pct"`
}

// BenchSplit is one trial's wall time divided between building its rig
// (seeding, topology instantiation, devices, stacks) and running it
// (handshake, strategy, fetch, classification), in µs per trial.
type BenchSplit struct {
	BuildUs float64 `json:"build_us"`
	RunUs   float64 `json:"run_us"`
}

// benchTrialSplit times the build and the run of the hot-path trial
// separately, reusing one arena across trials when reuse is set.
func benchTrialSplit(seed int64, reuse bool) BenchSplit {
	r := NewRunner(seed)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, seed)[0]
	factory := core.BuiltinFactories()["teardown-rst/ttl"]
	var split BenchSplit
	testing.Benchmark(func(b *testing.B) {
		var build, run time.Duration
		arena := new(trialArena)
		for i := 0; i < b.N; i++ {
			if !reuse {
				arena = new(trialArena)
			}
			t0 := time.Now()
			rg := r.build(vp, srv, r.Censor, r.trialSeed(vp, srv, i), arena)
			t1 := time.Now()
			rg.run(srv, factory, true, nil, nil)
			build += t1.Sub(t0)
			run += time.Since(t1)
		}
		perTrial := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
		split = BenchSplit{BuildUs: perTrial(build), RunUs: perTrial(run)}
	})
	return split
}

func toBenchResult(r testing.BenchmarkResult, trialsPerOp int) BenchResult {
	out := BenchResult{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if trialsPerOp > 0 && out.NsPerOp > 0 {
		out.TrialsPerSec = float64(trialsPerOp) / (out.NsPerOp / 1e9)
	}
	return out
}

// RunBench measures the hot path and both campaign modes and returns
// the full report. Each section uses a fresh Runner so pool statistics
// and RNG streams are attributable.
func RunBench(seed int64) BenchReport {
	rep := BenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Seed:      seed,
		Baseline:  seedBaseline(),
	}

	// Single-trial hot path, the allocs/op headline.
	trialRes := testing.Benchmark(func(b *testing.B) {
		r := NewRunner(seed)
		vp := VantagePoints()[0]
		srv := Servers(1, r.Cal, seed)[0]
		factory := core.BuiltinFactories()["teardown-rst/ttl"]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunOne(vp, srv, factory, true, i)
		}
	})
	rep.Trial = toBenchResult(trialRes, 0) // trials/sec is a campaign-level figure

	// Goodput path: one 64 KiB upload through the bw=1mbit,queue=16
	// access link, congestion control and the shaper both live.
	goodputRes := testing.Benchmark(func(b *testing.B) {
		r := NewRunner(seed)
		vp := VantagePoints()[6]
		srv := goodputServers(r, 1)[0]
		s := goodputStrategies()[2] // an inject strategy: the plain congested transfer
		r.Topo = goodputTopo(vp, srv)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.runGoodputTrial(vp, srv, s.factory, i, nil)
		}
	})
	rep.GoodputTrial = toBenchResult(goodputRes, 0)

	sc := BenchCampaignScale()
	rep.TrialsPerCampaignOp = 2 * len(table1Strategies()) * sc.VPs * sc.Servers * sc.Trials

	var poolStats packet.PoolStats
	serialRes := testing.Benchmark(func(b *testing.B) {
		r := NewRunner(seed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rows := RunTable1(r, sc); len(rows) != len(table1Strategies()) {
				b.Fatalf("rows = %d", len(rows))
			}
		}
		poolStats = r.PoolStats()
	})
	rep.CampaignSerial = toBenchResult(serialRes, rep.TrialsPerCampaignOp)
	rep.Pool = BenchPoolStats{
		Gets:     poolStats.Gets,
		Puts:     poolStats.Puts,
		News:     poolStats.News,
		Recycled: poolStats.Recycled(),
	}

	parallelRes := testing.Benchmark(func(b *testing.B) {
		r := NewRunner(seed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rows := RunTable1Parallel(r, sc); len(rows) != len(table1Strategies()) {
				b.Fatalf("rows = %d", len(rows))
			}
		}
	})
	rep.CampaignParallel = toBenchResult(parallelRes, rep.TrialsPerCampaignOp)

	rep.Layers = make(map[string]BenchResult, len(layerBenchmarks))
	for _, l := range layerBenchmarks {
		rep.Layers[l.name] = toBenchResult(testing.Benchmark(l.fn), 0)
	}

	rep.TrialSplit = map[string]BenchSplit{
		"fresh-arena":  benchTrialSplit(seed, false),
		"worker-arena": benchTrialSplit(seed, true),
	}

	if base := rep.Baseline.Trial.AllocsPerOp; base > 0 {
		rep.AllocReductionPct = 100 * (1 - float64(rep.Trial.AllocsPerOp)/float64(base))
	}
	return rep
}

// BenchGateTolerance is the allocs/trial regression budget the CI
// bench gate allows over the committed report before failing.
const BenchGateTolerance = 0.05

// RunBenchGate re-measures the single-trial hot path's allocs/op and
// judges it against the committed report's figure with the given
// fractional tolerance (<=0 selects BenchGateTolerance). It measures
// only allocation counts — deterministic under Go's allocator, unlike
// ns/op — so the gate holds on loaded CI machines.
func RunBenchGate(seed int64, committed BenchReport, tolerance float64) (measured, limit int64, ok bool) {
	if tolerance <= 0 {
		tolerance = BenchGateTolerance
	}
	res := testing.Benchmark(func(b *testing.B) {
		r := NewRunner(seed)
		vp := VantagePoints()[0]
		srv := Servers(1, r.Cal, seed)[0]
		factory := core.BuiltinFactories()["teardown-rst/ttl"]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunOne(vp, srv, factory, true, i)
		}
	})
	measured = res.AllocsPerOp()
	limit = int64(float64(committed.Trial.AllocsPerOp) * (1 + tolerance))
	return measured, limit, measured <= limit
}

// WriteBenchJSON renders the report as indented JSON (the
// BENCH_netem.json format).
func WriteBenchJSON(w io.Writer, rep BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadBenchJSON parses a report written by WriteBenchJSON.
func ReadBenchJSON(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	err := json.NewDecoder(r).Decode(&rep)
	return rep, err
}

func pctDelta(oldV, newV float64) string {
	if oldV == 0 {
		return "   n/a"
	}
	return fmt.Sprintf("%+5.1f%%", 100*(newV-oldV)/oldV)
}

func benchLine(b *strings.Builder, name string, cur, base BenchResult) {
	fmt.Fprintf(b, "  %-18s %12.0f ns/op (%s vs baseline)   %8d allocs/op (%s)\n",
		name, cur.NsPerOp, pctDelta(base.NsPerOp, cur.NsPerOp),
		cur.AllocsPerOp, pctDelta(float64(base.AllocsPerOp), float64(cur.AllocsPerOp)))
}

// FormatBenchReport renders the report for humans, deltas against the
// embedded baseline included.
func FormatBenchReport(rep BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== benchmark: trial hot path and campaigns (%s %s/%s, %d CPUs, seed %d) ==\n",
		rep.GoVersion, rep.GOOS, rep.GOARCH, rep.NumCPU, rep.Seed)
	fmt.Fprintf(&b, "baseline: %s\n", rep.Baseline.Commit)
	benchLine(&b, "trial", rep.Trial, rep.Baseline.Trial)
	if rep.GoodputTrial.NsPerOp > 0 {
		// No pre-congestion baseline exists for the goodput path; the
		// line still records ns/op and allocs/op for bench-compare.
		benchLine(&b, "goodput trial", rep.GoodputTrial, BenchResult{})
	}
	benchLine(&b, "campaign/serial", rep.CampaignSerial, rep.Baseline.CampaignSerial)
	benchLine(&b, "campaign/parallel", rep.CampaignParallel, rep.Baseline.CampaignParallel)
	fmt.Fprintf(&b, "  %-18s serial %.0f trials/s, parallel %.0f trials/s (%d trials per campaign op)\n",
		"throughput", rep.CampaignSerial.TrialsPerSec, rep.CampaignParallel.TrialsPerSec, rep.TrialsPerCampaignOp)
	fmt.Fprintf(&b, "  %-18s gets %d, puts %d, news %d, recycled %d (%.1f%% of gets)\n",
		"packet pool", rep.Pool.Gets, rep.Pool.Puts, rep.Pool.News, rep.Pool.Recycled,
		safePct(rep.Pool.Recycled, rep.Pool.Gets))
	fmt.Fprintf(&b, "  %-18s %.1f%% fewer allocs per trial than the pre-pooling seed\n",
		"headline", rep.AllocReductionPct)
	for _, name := range layerNames(rep, BenchReport{}) {
		benchLine(&b, name, rep.Layers[name], BenchResult{}) // no pre-PR layer baseline
	}
	for _, name := range splitNames(rep, BenchReport{}) {
		sp := rep.TrialSplit[name]
		fmt.Fprintf(&b, "  %-18s build %7.1f µs + run %7.1f µs per trial\n", "split/"+name, sp.BuildUs, sp.RunUs)
	}
	return b.String()
}

func safePct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// CompareBenchReports diffs two BENCH_netem.json files (typically an
// old artifact vs a fresh `make bench` run) section by section.
func CompareBenchReports(oldRep, newRep BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== benchmark comparison (old: %s/%s ×%d, new: %s/%s ×%d) ==\n",
		oldRep.GOOS, oldRep.GOARCH, oldRep.NumCPU, newRep.GOOS, newRep.GOARCH, newRep.NumCPU)
	fmt.Fprintf(&b, "%-18s %14s %14s %8s   %12s %12s %8s\n",
		"", "old ns/op", "new ns/op", "Δ", "old allocs", "new allocs", "Δ")
	row := func(name string, o, n BenchResult) {
		fmt.Fprintf(&b, "%-18s %14.0f %14.0f %8s   %12d %12d %8s\n",
			name, o.NsPerOp, n.NsPerOp, strings.TrimSpace(pctDelta(o.NsPerOp, n.NsPerOp)),
			o.AllocsPerOp, n.AllocsPerOp,
			strings.TrimSpace(pctDelta(float64(o.AllocsPerOp), float64(n.AllocsPerOp))))
	}
	row("trial", oldRep.Trial, newRep.Trial)
	if oldRep.GoodputTrial.NsPerOp > 0 || newRep.GoodputTrial.NsPerOp > 0 {
		row("goodput trial", oldRep.GoodputTrial, newRep.GoodputTrial)
	}
	row("campaign/serial", oldRep.CampaignSerial, newRep.CampaignSerial)
	row("campaign/parallel", oldRep.CampaignParallel, newRep.CampaignParallel)
	if oldRep.CampaignParallel.TrialsPerSec > 0 && newRep.CampaignParallel.TrialsPerSec > 0 {
		fmt.Fprintf(&b, "%-18s %14.0f %14.0f %8s   (parallel trials/sec)\n", "throughput",
			oldRep.CampaignParallel.TrialsPerSec, newRep.CampaignParallel.TrialsPerSec,
			strings.TrimSpace(pctDelta(oldRep.CampaignParallel.TrialsPerSec, newRep.CampaignParallel.TrialsPerSec)))
	}
	for _, name := range layerNames(oldRep, newRep) {
		row(name, oldRep.Layers[name], newRep.Layers[name])
	}
	for _, name := range splitNames(oldRep, newRep) {
		o, n := oldRep.TrialSplit[name], newRep.TrialSplit[name]
		fmt.Fprintf(&b, "%-18s %14.1f %14.1f %8s   (build µs/trial)\n", "split/"+name,
			o.BuildUs, n.BuildUs, strings.TrimSpace(pctDelta(o.BuildUs, n.BuildUs)))
		fmt.Fprintf(&b, "%-18s %14.1f %14.1f %8s   (run µs/trial)\n", "",
			o.RunUs, n.RunUs, strings.TrimSpace(pctDelta(o.RunUs, n.RunUs)))
	}
	return b.String()
}

// layerNames returns the layer benchmarks present in either report,
// sorted.
func layerNames(a, b BenchReport) []string { return unionKeys(a.Layers, b.Layers) }

// splitNames returns the trial-split arena regimes present in either
// report, sorted.
func splitNames(a, b BenchReport) []string { return unionKeys(a.TrialSplit, b.TrialSplit) }

// unionKeys returns the keys present in either map, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	var names []string
	for name := range a {
		names = append(names, name)
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// --- layer benchmarks ---
//
// The substrate micro-benchmarks behind BenchReport.Layers. The root
// package's Benchmark* functions of the same names call these, so `go
// test -bench` and `make bench` measure the same code.

// layerBenchmarks lists the layer benchmarks by report key.
var layerBenchmarks = []struct {
	name string
	fn   func(*testing.B)
}{
	{"SimulatorEvents", BenchSimulatorEvents},
	{"DPIScan", BenchDPIScan},
	{"GFWProcessPacket", BenchGFWProcessPacket},
	{"PacketSerialize", BenchPacketSerialize},
	{"PacketParse", BenchPacketParse},
}

func benchTCP() *packet.Packet {
	return packet.NewTCP(packet.AddrFrom4(10, 0, 0, 1), 4000, packet.AddrFrom4(203, 0, 113, 80), 80,
		packet.FlagPSH|packet.FlagACK, 1000, 2000, make([]byte, 512))
}

// BenchPacketSerialize measures TCP packet serialization with
// checksums.
func BenchPacketSerialize(b *testing.B) {
	p := benchTCP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Serialize(packet.SerializeOptions{ComputeChecksums: true, FixLengths: true})
	}
}

// BenchPacketParse measures wire-format parsing.
func BenchPacketParse(b *testing.B) {
	wire := benchTCP().Serialize(packet.SerializeOptions{ComputeChecksums: true, FixLengths: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchDPIScan measures the Aho–Corasick engine over a 1 KiB payload
// with a realistic keyword list.
func BenchDPIScan(b *testing.B) {
	keywords := []string{"ultrasurf", "falun", "freegate", "dynaweb", "tiananmen", "vpn over tcp"}
	m := dpi.NewMatcher(keywords)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.Contains(payload) {
			b.Fatal("unexpected match")
		}
	}
}

// BenchGFWProcessPacket measures the per-packet cost of the evolved
// device's tap path.
func BenchGFWProcessPacket(b *testing.B) {
	sim := netem.NewSimulator(1)
	dev := gfw.NewDevice("gfw", gfw.Config{Model: gfw.ModelEvolved2017, Keywords: []string{"ultrasurf"}}, sim.Rand())
	path := &netem.Path{Sim: sim}
	path.Hops = []*netem.Hop{{Name: "r", Router: true}}
	ctx := &netem.Context{Sim: sim, Net: path, HopIndex: 0}
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	syn := packet.NewTCP(cli, 4000, srv, 80, packet.FlagSYN, 100, 0, nil)
	dev.Process(ctx, syn, netem.ToServer)
	data := packet.NewTCP(cli, 4000, srv, 80, packet.FlagACK, 101, 1, make([]byte, 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data.TCP.Seq = packet.Seq(101 + i*256)
		dev.Process(ctx, data, netem.ToServer)
	}
}

// BenchSimulatorEvents measures raw event throughput: a chain of
// self-rescheduling closures.
func BenchSimulatorEvents(b *testing.B) {
	sim := netem.NewSimulator(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.At(1, tick)
		}
	}
	sim.At(1, tick)
	sim.Run(b.N + 1)
}

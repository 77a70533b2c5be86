package main

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building fixed profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(num int, x uint64) { p.varint(uint64(num)<<3 | 0); p.varint(x) }

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(num int, fill func(*pb)) {
	var m pb
	fill(&m)
	p.bytes(num, m.b)
}

func (p *pb) packed(num int, xs ...uint64) {
	var m pb
	for _, x := range xs {
		m.varint(x)
	}
	p.bytes(num, m.b)
}

// fixedProfile encodes a two-sample CPU profile: sample one runs
// netem's Step with mallocgc inlined into it (one location, two
// lines), under experiment's build; sample two is a GC worker. The
// location ids of sample one are packed, sample two's are not.
func fixedProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "intango/internal/netem.(*Simulator).Step",
		"intango/internal/experiment.(*Runner).build", "runtime.gcBgMarkWorker"}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, 1); m.uint(2, 2) })
	p.msg(1, func(m *pb) { m.uint(1, 3); m.uint(2, 4) })
	p.msg(2, func(m *pb) { m.packed(1, 1, 2, 2); m.packed(2, 1, 10_000_000) })
	p.msg(2, func(m *pb) { m.uint(1, 3); m.packed(2, 2, 20_000_000) })
	loc := func(id uint64, fns ...uint64) {
		p.msg(4, func(m *pb) {
			m.uint(1, id)
			for _, fn := range fns {
				m.msg(4, func(l *pb) { l.uint(1, fn); l.uint(2, 42) })
			}
		})
	}
	loc(1, 1, 2) // mallocgc inlined into Step: innermost line first
	loc(2, 3)
	loc(3, 4)
	for id, name := range []uint64{5, 6, 7, 8} {
		p.msg(5, func(m *pb) { m.uint(1, uint64(id+1)); m.uint(2, name) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 10_000_000) // period, ignored
	return p.b
}

func TestParseProfileFixed(t *testing.T) {
	p, err := parseProfile(fixedProfile())
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"samples", "cpu"}; !reflect.DeepEqual(p.types, want) {
		t.Fatalf("types = %v, want %v", p.types, want)
	}
	want := []profSample{
		{stack: []string{"runtime.mallocgc", "intango/internal/netem.(*Simulator).Step",
			"intango/internal/experiment.(*Runner).build", "intango/internal/experiment.(*Runner).build"},
			values: []int64{1, 10_000_000}},
		{stack: []string{"runtime.gcBgMarkWorker"}, values: []int64{2, 20_000_000}},
	}
	if !reflect.DeepEqual(p.samples, want) {
		t.Fatalf("samples =\n%+v\nwant\n%+v", p.samples, want)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0x0a}, {0x0a, 0x05, 0x01}, {0x1f, 0x8b, 0x00}} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(%x) accepted garbage", data)
		}
	}
}

func cpuProfileOf(stacks map[string][]string, ns map[string]int64) *profile {
	p := &profile{types: []string{"samples", "cpu"}}
	for k, st := range stacks {
		p.samples = append(p.samples, profSample{stack: st, values: []int64{1, ns[k]}})
	}
	return p
}

func TestAttributeCPU(t *testing.T) {
	stacks := map[string][]string{
		// A runtime leaf is charged to its nearest layer caller.
		"netem": {"runtime.memmove", "intango/internal/netem.(*Path).Send", "intango/internal/experiment.(*Runner).runRig"},
		// A layer leaf is its own.
		"dpi": {"intango/internal/dpi.(*Matcher).Scan", "intango/internal/gfw.(*Device).inspect"},
		// math/rand is its own bucket, even called from a layer.
		"rand": {"math/rand.(*rngSource).Seed", "math/rand.NewSource", "intango/internal/netem.NewSimulator"},
		// GC anywhere on the stack wins.
		"gc":     {"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		"assist": {"runtime.gcAssistAlloc", "runtime.mallocgc", "intango/internal/packet.(*Pool).Get"},
		// uis is a package of its own, not device's.
		"uis":    {"sync.(*Mutex).Lock", "intango/internal/device/uis.(*Stack).clockPump"},
		"device": {"intango/internal/device.(*PipeEnd).push"},
		// The load generator: the benchmark's own code and net/http.
		"loadgen": {"bufio.(*Reader).Read", "net/http.(*persistConn).readLoop"},
		"main":    {"main.(*fetchWorld).fetch"},
		// Type arguments never decide the package.
		"generic": {"slices.SortFunc[...]", "intango/internal/core.plan[go.shape.*intango/internal/packet.Packet]"},
		// Nothing attributable: the scheduler.
		"sched": {"runtime.findRunnable", "runtime.schedule", "runtime.mcall"},
		// Packages outside the catalogue fall through to a caller.
		"trace": {"intango/internal/trace.(*Tracer).tap", "intango/internal/obs.(*Recorder).Record"},
	}
	ns := map[string]int64{"netem": 1, "dpi": 2, "rand": 4, "gc": 8, "assist": 16, "uis": 32,
		"device": 64, "loadgen": 128, "main": 256, "generic": 512, "sched": 1024, "trace": 2048}
	got, err := attributeCPU(cpuProfileOf(stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, m := range cpuModules {
		want[m] = 0
	}
	want["netem"], want["dpi"], want["rand"], want["gc"] = 1, 2, 4, 8+16
	want["uis"], want["device"], want["loadgen"], want["core"] = 32, 64, 128+256, 512
	want["runtime_other"], want["obs"] = 1024, 2048
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attributeCPU =\n%v\nwant\n%v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 4095 {
		t.Errorf("buckets sum to %d, want every sample once (4095)", sum)
	}
}

func TestCumulativeCPU(t *testing.T) {
	stacks := map[string][]string{
		"a": {"intango/internal/dpi.NewMatcher", "intango/internal/gfw.New", "intango/internal/experiment.(*Runner).build"},
		"b": {"math/rand.NewSource", "intango/internal/experiment.(*Runner).build"},
		// Recursion must not count a sample twice.
		"c": {"intango/internal/experiment.(*Runner).build", "intango/internal/experiment.(*Runner).build"},
		"d": {"intango/internal/netem.(*Simulator).Step"},
	}
	p := cpuProfileOf(stacks, map[string]int64{"a": 1, "b": 2, "c": 4, "d": 8})
	for fns, want := range map[string]int64{
		"intango/internal/experiment.(*Runner).build": 7,
		"intango/internal/dpi.NewMatcher":             1,
		"intango/internal/netem.(*Simulator).Step":    8,
	} {
		if got, err := cumulativeCPU(p, fns); err != nil || got != want {
			t.Errorf("cumulativeCPU(%s) = %d, %v; want %d", fns, got, err, want)
		}
	}
	if got, _ := cumulativeCPU(p, cumulative["cpu_us_per_op.rng_seed"]...); got != 2 {
		t.Errorf("rng_seed = %d, want 2", got)
	}
	if _, err := cumulativeCPU(&profile{types: []string{"contentions", "delay"}}); err == nil {
		t.Error("cumulativeCPU accepted a profile without cpu samples")
	}
}

func TestLockWaits(t *testing.T) {
	p := &profile{types: []string{"contentions", "delay"}}
	add := func(delay int64, stack ...string) {
		p.samples = append(p.samples, profSample{stack: stack, values: []int64{1, delay}})
	}
	add(1, "sync.(*Mutex).Unlock", "intango/internal/intangd.(*Proxy).clockPump")
	add(2, "sync.(*Mutex).Unlock", "intango/internal/intangd.(*Proxy).clientPump")
	add(4, "sync.(*Mutex).Unlock", "intango/internal/device/uis.(*Stack).readPump")
	add(8, "sync.(*Cond).Wait", "intango/internal/device/uis.(*Conn).Read")
	// The flow table's shard locks are intangd's, but not the world lock.
	add(16, "sync.(*Mutex).Unlock", "intango/internal/intangd.(*FlowTable).TouchOutbound", "intango/internal/intangd.(*Proxy).clientPump")
	add(32, "sync.(*Mutex).Unlock", "intango/internal/device.(*PipeEnd).push")
	add(64, "runtime.unlock", "internal/sync.(*Mutex).Unlock")
	got, err := lockWaits(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"intangd.world": 3, "uis": 12, "other": 16 + 32 + 64}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lockWaits = %v, want %v", got, want)
	}
}

//go:noinline
func spinFor(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i ^ x
		}
	}
	return x
}

var spinSink int

// TestParseRuntimeProfiles reads the runtime's own encodings: a CPU
// profile of a spin loop and a mutex profile of a contended lock.
func TestParseRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinSink += spinFor(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spun, err := cumulativeCPU(p, runtime.FuncForPC(reflect.ValueOf(spinFor).Pointer()).Name())
	if err != nil {
		t.Fatal(err)
	}
	if spun < int64(100*time.Millisecond) {
		t.Errorf("spinFor's profile shows %v of CPU, want most of 300ms", time.Duration(spun))
	}
	parts, err := attributeCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	if parts["loadgen"] < spun {
		t.Errorf("package main's spin (%d ns) not charged to loadgen (%d ns)", spun, parts["loadgen"])
	}

	runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mu.Lock()
				spinSink += spinFor(20 * time.Microsecond)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var mb bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&mb, 0); err != nil {
		t.Fatal(err)
	}
	mp, err := parseProfile(mb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	waits, err := lockWaits(mp)
	if err != nil {
		t.Fatal(err)
	}
	if waits["other"] == 0 || waits["intangd.world"] != 0 || waits["uis"] != 0 {
		t.Errorf("lockWaits of a test mutex = %v, want all under other", waits)
	}
}

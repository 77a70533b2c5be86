package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run builds its top-level object at least setupReps times and for at
// least setupBudget; the reported set-up time is the median. A Table 1
// runner's set-up takes about 10 ms, so it gets some two hundred tries;
// the proxy's first fetch alone takes 118 ms of virtual time, so it
// gets about seventeen.
const (
	setupReps   = 9
	setupBudget = 2 * time.Second
)

// moreSetups reports whether a run that has made n set-ups since start
// should make another.
func moreSetups(n int, start time.Time) bool {
	return n < setupReps || time.Since(start) < setupBudget
}

// subSeed derives the i-th independent input seed from the workload
// seed (splitmix64), so every input of a run follows from --seed.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the process's live heap — what a garbage
// collection found still reachable (/gc/heap/live:bytes) — after every
// collection of the measured phase, from a finalizer the collector runs
// once per cycle. The reported peak is the 90th percentile of those samples: the live heap
// also counts what was allocated while marking ran, so its maximum
// swings with GC timing (2.2 to 3.4 MB between runs of one seed), while
// the upper percentile of hundreds of cycles holds still. The mapped
// heap (HeapSys) grows in arena-sized steps instead — two runs of the
// same code read 7.7 or 11.7 MB.
type heapWatch struct {
	stop atomic.Bool

	mu      sync.Mutex
	samples []float64 // bytes
}

// newHeapWatch arms the watch. Made just before a phase starts, it takes
// its first sample at the phase's opening collection.
func newHeapWatch() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

// gcSentinel is garbage the moment it is armed; its finalizer runs
// after the collection that finds it.
type gcSentinel struct{ h *heapWatch }

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{h}, func(s *gcSentinel) {
		s.h.note()
		if !s.h.stop.Load() {
			s.h.arm()
		}
	})
}

func (h *heapWatch) note() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if v := sample[0].Value; v.Kind() == metrics.KindUint64 {
		h.mu.Lock()
		h.samples = append(h.samples, float64(v.Uint64()))
		h.mu.Unlock()
	}
}

// peakMB is the 90th percentile of the live-heap samples, in MiB.
func (h *heapWatch) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(append([]float64(nil), h.samples...), 0.9) / (1 << 20)
}

// close stops the watch after the next collection.
func (h *heapWatch) close() { h.stop.Store(true) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// phase accounts one measured phase: wall time, process CPU and heap
// allocations from start to stop.
type phase struct {
	t0      time.Time
	cpu0    time.Duration
	malloc0 uint64

	wall, cpu time.Duration
	mallocs   uint64
}

func startPhase() *phase {
	runtime.GC() // start from a clean heap so earlier garbage is not billed here
	return &phase{t0: time.Now(), cpu0: cpuTime(), malloc0: mallocs()}
}

func (p *phase) stop() {
	p.wall = time.Since(p.t0)
	p.cpu = cpuTime() - p.cpu0
	p.mallocs = mallocs() - p.malloc0
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). It
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// meanQuantile is the mean over groups of each group's q-quantile. It
// sorts the groups in place.
func meanQuantile(groups map[int][]float64, q float64) float64 {
	var sum float64
	for _, xs := range groups {
		sum += quantile(xs, q)
	}
	return sum / float64(len(groups))
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// e2e is the raw material of the end-to-end metrics.
type e2e struct {
	setups    []time.Duration
	ph        *phase
	attempted int // ops attempted in the measured phase
	failed    int
	// lat holds one latency (ms) per latency unit — a campaign call or
	// a fetch — by the runner that made it (the live workload has one).
	// A failed unit is recorded at the limit it missed.
	lat  map[int][]float64
	heap *heapWatch
	// calls, when set, holds one sample per call of a batch workload
	// (per time window of the live one).
	calls []callSample
}

func (m *e2e) addLat(runner int, d time.Duration) {
	if m.lat == nil {
		m.lat = map[int][]float64{}
	}
	m.lat[runner] = append(m.lat[runner], float64(d)/float64(time.Millisecond))
}

// callSample is one call or window: the runner that made it, the ops
// it completed, its wall and CPU time.
type callSample struct {
	runner    int
	ops       int
	wall, cpu time.Duration
}

// values computes the end-to-end metrics. Each latency quantile, and
// with calls the throughput and CPU per op, is taken over each runner's
// samples and averaged over the runners: a stretch of CPU stolen by a
// neighbour moves a sample, not the figure, and every population counts
// once.
func (m e2e) values() map[string]float64 {
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	ops := float64(m.attempted)
	okFrac := float64(m.attempted-m.failed) / ops
	throughput := okFrac * ops / m.ph.wall.Seconds()
	cpuPerOp := float64(m.ph.cpu) / float64(time.Millisecond) / ops
	if len(m.calls) > 0 {
		rates := map[int][]float64{}
		cpus := map[int][]float64{}
		for _, c := range m.calls {
			rates[c.runner] = append(rates[c.runner], float64(c.ops)/c.wall.Seconds())
			cpus[c.runner] = append(cpus[c.runner], float64(c.cpu)/float64(time.Millisecond)/float64(c.ops))
		}
		throughput = okFrac * meanQuantile(rates, 0.5)
		cpuPerOp = meanQuantile(cpus, 0.5)
	}
	return map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"throughput_ops_s": throughput,
		"latency_p50_ms":   meanQuantile(m.lat, 0.5),
		"latency_p90_ms":   meanQuantile(m.lat, 0.9),
		"cpu_ms_per_op":    cpuPerOp,
		"allocs_per_op":    float64(m.ph.mallocs) / ops,
		"peak_heap_mb":     m.heap.peakMB(),
		"ok_frac":          okFrac,
	}
}

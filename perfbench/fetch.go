package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"intango/internal/device/uis"
	"intango/internal/intangd"
	"intango/internal/packet"
)

// The intangd-fetch workload is the live proxy: an in-process
// intangd.Proxy against the fully pinned gfw2017 spec (the one
// `make intangd-smoke` boots) under teardown-reversal, at the shipped
// defaults (-timescale 1, 1 ms tick). Load is a closed loop of nproc
// clients, each doing a net/http GET of the keyword URL on a new
// connection through one uis.Stack — the only workload that crosses the
// pipe device, uis and the world lock. An op is one fetch.

const (
	fetchCensor = "tcb:evolved detect:keywords(ultrasurf) " +
		"react:reset(type1) react:reset(type2) react:block(dur=1m30s) " +
		"param:miss(p=0) param:resync(p=0) param:seglastwins(p=0)"
	fetchStrategy = "teardown-reversal"
	fetchURL      = "http://origin.example/search?q=ultrasurf"
	// originBody is what the proxy's origin serves (appsim.ServeHTTP).
	originBody = "<html><body>it works</body></html>"
	// fetchTimeout is the latency limit: a fetch that fails is recorded
	// at it.
	fetchTimeout = 10 * time.Second
)

// fetchWorld is one proxy with its client stack and HTTP client.
type fetchWorld struct {
	p   *intangd.Proxy
	st  *uis.Stack
	tr  *http.Transport
	hc  *http.Client
	dev *countingDevice // traced worlds only

	mu    sync.Mutex
	dials []float64 // ms, traced worlds only
	ttfbs []float64 // ms, traced worlds only
}

// newFetchWorld builds the proxy and the client side. Every world of a
// run takes the same seeds, so set-up repetitions and the traced world
// replay identical inputs.
func newFetchWorld(cfg config, traced bool) (*fetchWorld, error) {
	p, err := intangd.New(intangd.Config{
		Censor:   fetchCensor,
		Strategy: fetchStrategy,
		Seed:     subSeed(cfg.seed, 0),
	})
	if err != nil {
		return nil, err
	}
	w := &fetchWorld{p: p}
	dev := p.ClientDevice()
	if traced {
		w.dev = &countingDevice{inner: dev}
		dev = w.dev
	}
	w.st = uis.New(dev, uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  subSeed(cfg.seed, 1),
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	dial := w.st.DialContext
	if traced {
		dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			t0 := time.Now()
			c, err := w.st.DialContext(ctx, network, addr)
			w.note(&w.dials, time.Since(t0))
			return c, err
		}
	}
	w.tr = &http.Transport{DialContext: dial, DisableKeepAlives: true}
	w.hc = &http.Client{Transport: w.tr, Timeout: fetchTimeout}
	return w, nil
}

func (w *fetchWorld) note(dst *[]float64, d time.Duration) {
	w.mu.Lock()
	*dst = append(*dst, float64(d.Nanoseconds())/1e6)
	w.mu.Unlock()
}

func (w *fetchWorld) close() {
	w.tr.CloseIdleConnections()
	w.st.Close()
	w.p.Close()
}

// fetch does one GET and reports its latency and whether it returned
// a complete 200 with the origin's body.
func (w *fetchWorld) fetch() (time.Duration, bool) {
	ctx := context.Background()
	if w.dev != nil {
		// The transport calls the two hooks from different goroutines.
		var wrote atomic.Int64
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
			GotFirstResponseByte: func() {
				w.note(&w.ttfbs, time.Duration(time.Now().UnixNano()-wrote.Load()))
			},
		})
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fetchURL, nil)
	if err != nil {
		return 0, false
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return time.Since(t0), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return time.Since(t0), err == nil && resp.StatusCode == http.StatusOK && string(body) == originBody
}

// fetchWindow is the slice of a measured phase that yields one sample
// of CPU per fetch; the phase reports their median, so a burst of CPU
// taken by a neighbour costs a window, not the figure.
const fetchWindow = 2500 * time.Millisecond

// loop runs clients closed-loop fetchers until d has passed and waits
// for the last fetch to finish, feeding m.
func (w *fetchWorld) loop(d time.Duration, clients int, m *e2e) {
	end := time.Now().Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				lat, ok := w.fetch()
				mu.Lock()
				m.attempted++
				if !ok {
					m.failed++
					lat = fetchTimeout
				}
				m.addLat(0, lat)
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	t0, c0, n0 := time.Now(), cpuTime(), 0
	for {
		select {
		case <-done:
			return
		case now := <-tick.C:
			if now.Sub(t0) < fetchWindow {
				continue
			}
			mu.Lock()
			n := m.attempted
			mu.Unlock()
			c := cpuTime()
			if n > n0 {
				m.calls = append(m.calls, callSample{ops: n - n0, wall: now.Sub(t0), cpu: c - c0})
			}
			t0, c0, n0 = now, c, n
		}
	}
}

// injected is how many resets the censor injected: any means a fetch
// was censored, which the workload's strategy must prevent.
func (w *fetchWorld) injected() int {
	return w.p.CensorStat("inject-type1") + w.p.CensorStat("inject-type2")
}

// setupFetch builds a world and completes its first fetch.
func setupFetch(cfg config, traced bool) (*fetchWorld, time.Duration, error) {
	runtime.GC() // no earlier garbage billed to this set-up
	t0 := time.Now()
	w, err := newFetchWorld(cfg, traced)
	if err != nil {
		return nil, 0, err
	}
	if _, ok := w.fetch(); !ok {
		w.close()
		return nil, 0, fmt.Errorf("first fetch through the proxy failed")
	}
	return w, time.Since(t0), nil
}

func runFetch(cfg config) (outcome, error) {
	if cfg.trace {
		return traceFetch(cfg)
	}
	var setups []time.Duration
	var w *fetchWorld
	for start := time.Now(); moreSetups(len(setups), start); {
		if w != nil {
			w.close()
		}
		nw, d, err := setupFetch(cfg, false)
		if err != nil {
			return outcome{}, err
		}
		w = nw
		setups = append(setups, d)
	}
	defer w.close()
	heap := newHeapWatch()
	defer heap.close()
	m := e2e{setups: setups, heap: heap}
	m.ph = startPhase()
	w.loop(cfg.measure(), cfg.nproc, &m)
	m.ph.stop()
	var notes []string
	if inj := w.injected(); inj > 0 {
		notes = append(notes, fmt.Sprintf("censor injected %d resets", inj))
		m.failed = min(m.attempted, max(m.failed, inj))
	}
	if m.failed > 0 {
		notes = append(notes, fmt.Sprintf("%d of %d fetches failed", m.failed, m.attempted))
	}
	values := m.values()
	// A window holds a whole number of fetches — about 43 — so window
	// rates come in steps of 2 %; the phase's own rate does not.
	values["throughput_ops_s"] = float64(m.attempted-m.failed) / m.ph.wall.Seconds()
	return outcome{attempted: m.attempted, failed: m.failed, values: values, notes: notes}, nil
}

// traceFetch is the traced run: an untraced world measured as the
// overhead base, then a second world, built with the same seeds behind
// the counting device, dial timer and httptrace, measured under the CPU
// and mutex profiles.
func traceFetch(cfg config) (outcome, error) {
	v := zeroPerLayer()
	untracedD, tracedD := splitTraced(cfg.measure())

	bw, _, err := setupFetch(cfg, false)
	if err != nil {
		return outcome{}, err
	}
	var base e2e
	base.ph = startPhase()
	bw.loop(untracedD, cfg.nproc, &base)
	base.ph.stop()
	failed := base.failed + bw.injected()
	bw.close()

	w, _, err := setupFetch(cfg, true)
	if err != nil {
		return outcome{}, err
	}
	defer w.close()
	reg0 := w.p.Registry().Snapshot().Counters
	dev0 := w.dev.snapshot()
	pipe, _ := w.p.ClientDevice().(interface{ Dropped() uint64 })
	var drop0 uint64
	if pipe != nil {
		drop0 = pipe.Dropped()
	}
	w.mu.Lock()
	dial0, ttfb0 := len(w.dials), len(w.ttfbs)
	w.mu.Unlock()

	var traced e2e
	tr, err := startTrace()
	if err != nil {
		return outcome{}, err
	}
	w.loop(tracedD, cfg.nproc, &traced)
	res, err := tr.stop()
	if err != nil {
		return outcome{}, err
	}
	ops := traced.attempted
	if err := res.fill(v, ops, perOpUs(base)); err != nil {
		return outcome{}, err
	}

	reg1 := w.p.Registry().Snapshot().Counters
	delta := map[string]uint64{}
	for k, n := range reg1 {
		delta[k] = n - reg0[k]
	}
	fillCounters(v, delta, ops)
	v["intangd.flows_open"] = float64(w.p.FlowCount())

	dev1 := w.dev.snapshot()
	writes := durationsMs(dev1.writes[len(dev0.writes):])
	v["device.write_us_p50"] = 1e3 * quantile(writes, 0.5)
	v["device.read_wait_ms_per_op"] = float64((dev1.readWait - dev0.readWait).Nanoseconds()) / 1e6 / float64(ops)
	v["device.pkts_out_per_op"] = float64(dev1.out-dev0.out) / float64(ops)
	v["device.pkts_in_per_op"] = float64(dev1.in-dev0.in) / float64(ops)
	if pipe != nil {
		v["device.drops"] = float64(pipe.Dropped() - drop0)
	}
	w.mu.Lock()
	v["uis.dial_ms_p50"] = quantile(w.dials[dial0:], 0.5)
	v["intangd.ttfb_ms_p50"] = quantile(w.ttfbs[ttfb0:], 0.5)
	w.mu.Unlock()

	var notes []string
	parseNs, serNs, bad := replayWire(dev1.wire)
	v["packet.parse_ns_per_pkt"], v["packet.serialize_ns_per_pkt"] = parseNs, serNs
	if bad > 0 {
		notes = append(notes, fmt.Sprintf("%d captured packets did not round-trip through parse/serialize", bad))
	}
	failed += traced.failed + w.injected() + bad
	attempted := base.attempted + traced.attempted
	if failed > 0 {
		notes = append(notes, fmt.Sprintf("%d failures in %d fetches", failed, attempted))
	}
	return outcome{attempted: attempted, failed: min(failed, attempted), values: v, notes: notes}, nil
}

// replayWire times packet.Parse and Packet.Serialize over the captured
// wire images (the two halves of every pipe crossing) and counts the
// images that do not survive a parse/serialize round trip unchanged.
func replayWire(wire [][]byte) (parseNs, serializeNs float64, bad int) {
	if len(wire) == 0 {
		return 0, 0, 0
	}
	pkts := make([]*packet.Packet, len(wire))
	for i, img := range wire {
		p, err := packet.Parse(img)
		if err != nil || !bytes.Equal(p.Serialize(packet.SerializeOptions{}), img) {
			bad++
			continue
		}
		pkts[i] = p
	}
	const budget = 200 * time.Millisecond
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		for _, img := range wire {
			_, _ = packet.Parse(img) // errors counted above
		}
		n += len(wire)
	}
	parseNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	n = 0
	t0 = time.Now()
	for time.Since(t0) < budget {
		for _, p := range pkts {
			if p != nil {
				p.Serialize(packet.SerializeOptions{})
				n++
			}
		}
	}
	if n > 0 {
		serializeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return parseNs, serializeNs, bad
}

package intangd_test

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"intango/internal/device/uis"
	"intango/internal/intangd"
	"intango/internal/packet"
	"intango/internal/plane"
)

// testCensor is the measured gfw2017 with every sampled probability
// pinned: detection never misses, RSTs always tear the TCB down, and
// reassembly is first-wins — so one fetch decides the outcome.
const testCensor = "tcb:evolved detect:keywords(ultrasurf) " +
	"react:reset(type1) react:reset(type2) react:block(dur=1m30s) " +
	"param:miss(p=0) param:resync(p=0) param:seglastwins(p=0)"

// newWorld boots a proxy against the deterministic censor and hangs a
// userspace stack plus a stock net/http client off its client device.
func newWorld(t *testing.T, strategy string) (*intangd.Proxy, *http.Client) {
	t.Helper()
	p, err := intangd.New(intangd.Config{
		Censor:   testCensor,
		Strategy: strategy,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli := uis.New(p.ClientDevice(), uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  1,
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	hc := &http.Client{
		Transport: &http.Transport{DialContext: cli.DialContext, DisableKeepAlives: true},
		Timeout:   15 * time.Second,
	}
	t.Cleanup(func() {
		cli.Close()
		p.Close()
	})
	return p, hc
}

// TestProxyBlocksSensitiveFetch is the daemon half of the paper's
// baseline: a real net/http GET carrying the censored keyword, dialed
// through the userspace stack into intangd with no strategy, dies to
// the censor's injected resets.
func TestProxyBlocksSensitiveFetch(t *testing.T) {
	p, hc := newWorld(t, "")

	resp, err := hc.Get("http://origin.example/search?q=ultrasurf")
	if err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("sensitive GET succeeded without a strategy: %d %q", resp.StatusCode, body)
	}

	if got := p.CensorStat("inject-type1") + p.CensorStat("inject-type2"); got == 0 {
		t.Errorf("censor injected no resets (stats: type1=%d type2=%d)",
			p.CensorStat("inject-type1"), p.CensorStat("inject-type2"))
	}
	views := p.FlowViews()
	reset := false
	for _, v := range views {
		if v.GotRST {
			reset = true
		}
	}
	if !reset {
		t.Errorf("no flow marked got_rst; flows: %+v", views)
	}
}

// TestProxyEvadesWithStrategy is the payoff: the same real client, the
// same censor, but the daemon wraps each flow in the Table 4
// teardown-reversal strategy — and the keyword fetch completes.
func TestProxyEvadesWithStrategy(t *testing.T) {
	p, hc := newWorld(t, "teardown-reversal")

	resp, err := hc.Get("http://origin.example/search?q=ultrasurf")
	if err != nil {
		t.Fatalf("GET through teardown-reversal: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("status: got %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "it works") {
		t.Errorf("body: got %q", body)
	}

	views := p.FlowViews()
	if len(views) == 0 {
		t.Fatalf("flow table empty after fetch")
	}
	found := false
	for _, v := range views {
		if v.Strategy == "teardown-reversal" && v.OutPkts > 0 && v.InPkts > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no flow recorded under teardown-reversal; flows: %+v", views)
	}
}

// TestProxyRegistryFlushesPathCounters checks that the path's per-event
// counts reach the daemon's registry — and so /metrics — once a fetch
// has crossed the path.
func TestProxyRegistryFlushesPathCounters(t *testing.T) {
	p, hc := newWorld(t, "teardown-reversal")
	resp, err := hc.Get("http://origin.example/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	c := p.Registry().Snapshot().Counters
	if c["netem.send"] == 0 || c["netem.deliver"] == 0 {
		t.Fatalf("registry after one fetch: netem.send=%d netem.deliver=%d", c["netem.send"], c["netem.deliver"])
	}
	if c["intangd.clock-wakes"] == 0 {
		t.Fatalf("registry after one fetch: the world's clock never woke")
	}
	pl, err := plane.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("plane.Listen: %v", err)
	}
	defer pl.Close()
	p.Mount(pl)
	mresp, err := http.Get("http://" + pl.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "intangd_netem_send_total ") {
		t.Fatalf("/metrics lacks the path counters:\n%s", body)
	}
	if !strings.Contains(string(body), "intangd_intangd_clock_wakes_total ") {
		t.Fatalf("/metrics lacks the clock's wake-ups:\n%s", body)
	}
}

// TestProxyStrategySwitchAndBlockWindow drives the live-switch loop:
// evade, flip the daemon to passthrough mid-run, get censored, then
// skip the 90-second pair blocklist on the virtual clock and evade
// again after flipping back.
func TestProxyStrategySwitchAndBlockWindow(t *testing.T) {
	p, hc := newWorld(t, "teardown-reversal")

	if _, err := hc.Get("http://origin.example/search?q=ultrasurf"); err != nil {
		t.Fatalf("initial evaded GET: %v", err)
	}

	if err := p.SetStrategy("pass"); err != nil {
		t.Fatalf("SetStrategy(pass): %v", err)
	}
	if got := p.Strategy(); got != "pass" {
		t.Fatalf("Strategy() = %q", got)
	}
	if _, err := hc.Get("http://origin.example/search?q=ultrasurf"); err == nil {
		t.Fatalf("sensitive GET succeeded on passthrough")
	}

	// The censored pair is now on the 90s blocklist; skip it on the
	// virtual clock instead of waiting out wall time.
	p.AdvanceVirtual(2 * time.Minute)

	if err := p.SetStrategy("teardown-reversal"); err != nil {
		t.Fatalf("SetStrategy back: %v", err)
	}
	resp, err := hc.Get("http://origin.example/search?q=ultrasurf")
	if err != nil {
		t.Fatalf("GET after block window: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status after block window: got %d", resp.StatusCode)
	}
}

// TestResolveStrategy covers the three reference forms the daemon and
// its plane accept.
func TestResolveStrategy(t *testing.T) {
	for _, ref := range []string{"", "none", "pass"} {
		name, f, err := intangd.ResolveStrategy(ref)
		if err != nil || f != nil || name != "pass" {
			t.Errorf("ResolveStrategy(%q) = %q, %v, %v", ref, name, f, err)
		}
	}
	name, f, err := intangd.ResolveStrategy("teardown-reversal")
	if err != nil || f == nil || name != "teardown-reversal" {
		t.Errorf("builtin: %q, %v, %v", name, f, err)
	}
	if _, f, err := intangd.ResolveStrategy("on:first-payload[teardown(flags=rst,disc=ttl)]"); err != nil || f == nil {
		t.Errorf("raw spec: %v, %v", f, err)
	}
	if _, _, err := intangd.ResolveStrategy("no-such-strategy-!!!"); err == nil {
		t.Errorf("garbage ref resolved")
	}
}

// TestIdleProxySleeps: a proxy with a userspace stack attached and no
// traffic makes no clock wake-ups — the pumps sleep until there is an
// event to run — yet the first fetch wakes them at once.
func TestIdleProxySleeps(t *testing.T) {
	p, err := intangd.New(intangd.Config{Censor: testCensor, Strategy: "teardown-reversal", Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	cli := uis.New(p.ClientDevice(), uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  1,
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	defer cli.Close()
	hc := &http.Client{Transport: &http.Transport{DialContext: cli.DialContext, DisableKeepAlives: true}}

	time.Sleep(200 * time.Millisecond)
	if n := p.Registry().Value("intangd.clock-wakes"); n != 0 {
		t.Errorf("idle proxy: intangd.clock-wakes = %d, want 0", n)
	}
	if n := cli.ClockWakes(); n != 0 {
		t.Errorf("idle stack: %d clock wake-ups, want 0", n)
	}

	resp, err := hc.Get("http://origin.example/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if p.Registry().Value("intangd.clock-wakes") == 0 {
		t.Errorf("the fetch never woke the world's clock")
	}
	// The flow's virtual lifetime is the fetch's own ~0.12 s: its first
	// packet landed at wall-now, not back when the clock last ran, and
	// no packet waited for a retransmission to be noticed.
	for _, v := range p.FlowViews() {
		t.Logf("flow %s: %d ms of virtual time", v.Tuple, v.VirtMS)
		if v.VirtMS >= 200 {
			t.Errorf("flow %s lived %d ms of virtual time, want the fetch's ~120", v.Tuple, v.VirtMS)
		}
	}
}

// TestProxyCloseLeaksNoGoroutines: after a fetch, closing the client
// stack and the proxy leaves no goroutine behind.
func TestProxyCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		p, err := intangd.New(intangd.Config{Censor: testCensor, Strategy: "teardown-reversal", Seed: 7})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer p.Close()
		cli := uis.New(p.ClientDevice(), uis.Config{
			Addr:  p.ClientAddr(),
			Seed:  1,
			Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
		})
		defer cli.Close()
		tr := &http.Transport{DialContext: cli.DialContext, DisableKeepAlives: true}
		defer tr.CloseIdleConnections()
		resp, err := (&http.Client{Transport: tr, Timeout: 15 * time.Second}).Get("http://origin.example/")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, started with %d:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

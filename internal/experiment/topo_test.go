package experiment

import (
	"strings"
	"testing"

	"intango/internal/core"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/topo"
)

// TestRouteDynamicsHopUnderflow is the regression test for the ±2 hop
// jitter on short measured paths: at srv.Hops = 2 the −2 draw used to
// produce a zero-hop path and panic indexing the first hop. The clamp
// floors the path at one router.
func TestRouteDynamicsHopUnderflow(t *testing.T) {
	vp := VantagePoints()[0]
	r := NewRunner(11)
	srv := Servers(1, r.Cal, 11)[0]
	srv.Hops = 2
	srv.GFWHop = 2 // clamps onto the shortened path
	srv.RouteDynamicsProb = 1.0
	f := core.BuiltinFactories()["teardown-rst/ttl"]
	sawShift := false
	for trial := 0; trial < 24; trial++ {
		out := r.RunOne(vp, srv, f, true, trial)
		// Same seed, same trial → same build; the clamp must be stable.
		if again := r.RunOne(vp, srv, f, true, trial); again != out {
			t.Fatalf("trial %d not deterministic: %v then %v", trial, out, again)
		}
		sawShift = true
	}
	if !sawShift {
		t.Fatal("no trials ran")
	}
	// The clamped single-hop shape itself: hops 2-2=0 → 1.
	key := shapeKey(vp, srv, 1)
	if key.gfwHop != 0 {
		t.Errorf("gfwHop on one-hop path = %d, want 0", key.gfwHop)
	}
	prog, err := topo.NewProgram(derivedSpec(key))
	if err != nil {
		t.Fatalf("one-hop derived spec invalid: %v", err)
	}
	if !prog.Linear() {
		t.Error("one-hop derived spec not linear")
	}
}

// TestPoolStatsBothArms: PoolStats must be an explicit zero snapshot
// when pooling is disabled or untouched, and live counters otherwise.
func TestPoolStatsBothArms(t *testing.T) {
	vp := VantagePoints()[0]
	f := core.BuiltinFactories()["teardown-rst/ttl"]

	fresh := NewRunner(5)
	if got := fresh.PoolStats(); got != (packet.PoolStats{}) {
		t.Errorf("PoolStats before any trial = %+v, want zero", got)
	}

	noPool := NewRunner(5)
	noPool.NoPool = true
	srv := Servers(1, noPool.Cal, 5)[0]
	noPool.RunOne(vp, srv, f, true, 0)
	if got := noPool.PoolStats(); got != (packet.PoolStats{}) {
		t.Errorf("PoolStats with NoPool = %+v, want zero", got)
	}

	pooled := NewRunner(5)
	pooled.RunOne(vp, srv, f, true, 0)
	got := pooled.PoolStats()
	if got.Gets == 0 {
		t.Errorf("PoolStats after pooled trial = %+v, want nonzero Gets", got)
	}
}

// TestDerivedTopoMatchesHandBuilt pins the derived spec's canonical
// text for a representative pair, and checks the compiled substrate is
// the linear fast path with the historical hop labeling.
func TestDerivedTopoMatchesHandBuilt(t *testing.T) {
	r := NewRunner(42)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 42)[0]
	spec := r.TopoSpec(vp, srv)
	text := spec.String()
	for _, want := range []string{
		"node:c(client)",
		"node:r0(router,label=r,proc=mbox:aliyun)",
		"node:s(server)",
		"tap=gfw-",
		"link:c>r0(lat=1ms,loss=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("derived spec missing %q:\n%s", want, text)
		}
	}
	// Canonical round trip holds for derived specs too.
	if reparsed := topo.MustParseTopo(text); reparsed.String() != text {
		t.Errorf("derived spec does not round-trip:\n%s", text)
	}
	rg := r.build(vp, srv, r.Topo, r.Censor, 1, new(trialArena))
	path, ok := rg.net.(*netem.Path)
	if !ok {
		t.Fatalf("derived topology compiled to %T, want *netem.Path", rg.net)
	}
	for i, h := range path.Hops {
		if h.Name != "r" {
			t.Fatalf("hop %d named %q, want r (label preserved)", i, h.Name)
		}
	}
	if len(rg.devices) == 0 {
		t.Fatal("no GFW devices bound")
	}
}

// TestGraphTopoCampaign runs a trial campaign over the ECMP demo graph
// (two parallel censor devices, asymmetric reverse route) end to end
// through the standard runner: builds must produce a Fabric, flows
// must split across both branches, and outcomes must be deterministic.
func TestGraphTopoCampaign(t *testing.T) {
	vp := VantagePoints()[0]
	r := NewRunner(9)
	r.Topo = GraphDemoTopo
	srv := Servers(1, r.Cal, 9)[0]
	rg := r.build(vp, srv, r.Topo, r.Censor, 1, new(trialArena))
	fab, ok := rg.net.(*netem.Fabric)
	if !ok {
		t.Fatalf("graph topology compiled to %T, want *netem.Fabric", rg.net)
	}
	if len(rg.devices) != 2 {
		t.Fatalf("bound %d devices, want 2 parallel devices", len(rg.devices))
	}
	cli, sv := vp.Addr, srv.Addr
	sawB1, sawB2 := false, false
	for sport := uint16(32768); sport < 32768+64; sport++ {
		pkt := packet.NewTCP(cli, sport, sv, 80, packet.FlagSYN, 1, 0, nil)
		route := strings.Join(fab.ForwardRoute(pkt), ">")
		if strings.Contains(route, ">b1>") {
			sawB1 = true
		}
		if strings.Contains(route, ">b2>") {
			sawB2 = true
		}
	}
	if !sawB1 || !sawB2 {
		t.Errorf("ECMP never split flows across branches: b1=%v b2=%v", sawB1, sawB2)
	}
	f := core.BuiltinFactories()["teardown-rst/ttl"]
	for trial := 0; trial < 4; trial++ {
		out := r.RunOne(vp, srv, f, true, trial)
		if again := r.RunOne(vp, srv, f, true, trial); again != out {
			t.Fatalf("graph trial %d not deterministic: %v then %v", trial, out, again)
		}
	}
}

// TestTopoCacheBoundedByRunner pins the compiled-topology caches to
// their runner: a campaign fills only its own runner's cache, with at
// most one derived program per path shape of its population, and a
// second runner starts empty.
func TestTopoCacheBoundedByRunner(t *testing.T) {
	sc := Scale{VPs: 2, Servers: 3, Trials: 2}
	r := NewRunner(5)
	RunTable1(r, sc)
	shapes := map[topoKey]bool{}
	for _, vp := range VantagePoints()[:sc.VPs] {
		for _, srv := range Servers(sc.Servers, r.Cal, r.Seed) {
			// Route dynamics move the hop count by ±2.
			for _, d := range []int{-2, 0, 2} {
				shapes[shapeKey(vp, srv, max(srv.Hops+d, 1))] = true
			}
		}
	}
	if n := len(r.topoPrograms); n == 0 || n > len(shapes) {
		t.Fatalf("runner caches %d derived programs, population has %d shapes", n, len(shapes))
	}
	for key := range r.topoPrograms {
		if !shapes[key] {
			t.Fatalf("cached shape %+v is outside the runner's population", key)
		}
	}
	other := NewRunner(6)
	if len(other.topoPrograms) != 0 || len(other.topoOverride) != 0 {
		t.Fatal("a fresh runner sees another runner's compiled programs")
	}
	other.Topo = GraphDemoTopo
	RunTable1(other, Scale{VPs: 1, Servers: 1, Trials: 1})
	if len(other.topoOverride) != 1 || len(r.topoOverride) != 0 {
		t.Fatalf("override caches: %d on its runner, %d on another", len(other.topoOverride), len(r.topoOverride))
	}
}

package experiment

import (
	"bytes"
	"os"
	"testing"

	"intango/internal/core"
	"intango/internal/packet"
	"intango/internal/pcap"
)

// explainQuick reproduces what `cmd/tables -what explain` prints at
// quick scale, seed 42.
func explainQuick(t *testing.T) string {
	t.Helper()
	r := NewRunner(42)
	sc := QuickScale()
	vps := VantagePoints()[:sc.VPs]
	servers := Servers(sc.Servers, r.Cal, 42)
	narrative, _, err := r.ExplainFirstFailure("teardown-rst/ttl", vps, servers, sc.Trials)
	if err != nil {
		t.Fatal(err)
	}
	return narrative
}

// TestExplainGolden pins the `-what explain` narrative byte-for-byte:
// the causal account of the first failing teardown-rst/ttl trial must
// stay stable across refactors (set UPDATE_GOLDEN=1 to regenerate
// after an intentional change).
func TestExplainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a population sweep")
	}
	got := explainQuick(t)
	const golden = "testdata/explain.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("explain narrative drifted from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestExplainNoFailureErrors: a sweep with no failure must surface an
// error, not an empty narrative (the CLI exits non-zero on it). An
// empty sweep trivially has no failure.
func TestExplainNoFailureErrors(t *testing.T) {
	r := NewRunner(42)
	vps := VantagePoints()[:1]
	servers := Servers(1, r.Cal, 42)
	if _, _, err := r.ExplainFirstFailure("teardown-rst/ttl", vps, servers, 0); err == nil {
		t.Fatal("expected an error when the sweep has no failing trial")
	}
}

// TestDiagnoseBundlesParse: every pcap in a diagnosis bundle must parse
// back through pcap.Read, and the annotated packets must parse as IPv4
// datagrams — the acceptance bar for bundle fidelity.
func TestDiagnoseBundlesParse(t *testing.T) {
	if testing.Short() {
		t.Skip("controlled re-runs")
	}
	r := NewRunner(42)
	sc := QuickScale()
	vps := VantagePoints()[:sc.VPs]
	servers := Servers(sc.Servers, r.Cal, 42)
	vp, srv, trial, ok := r.FindFailingTrial("teardown-rst/ttl", vps, servers, sc.Trials)
	if !ok {
		t.Fatal("no failing trial at quick scale")
	}
	d := r.Diagnose(vp, srv, "teardown-rst/ttl", trial)
	if d.BaselineBundle == nil {
		t.Fatal("baseline bundle missing")
	}
	dir := t.TempDir()
	paths, err := WriteDiagnosisBundles(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	var pcaps int
	for _, p := range paths {
		if len(p) < 5 || p[len(p)-5:] != ".pcap" {
			continue
		}
		pcaps++
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := pcap.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: empty capture", p)
		}
		for _, rec := range recs {
			if _, err := packet.Parse(rec.Data); err != nil {
				t.Fatalf("%s: unparseable datagram: %v", p, err)
			}
		}
	}
	if pcaps == 0 {
		t.Fatal("diagnosis wrote no pcap files")
	}
	// The baseline trace must carry strategy-crafted packets with their
	// spec-piece attribution.
	var crafted bool
	for _, p := range d.BaselineBundle.Packets {
		if p.Crafter != "" {
			crafted = true
		}
	}
	if !crafted {
		t.Error("baseline bundle has no crafter-attributed packets")
	}
}

// TestExplainResolvesStrategies: explain accepts raw spec text as well
// as a registered name — the spec of teardown-rst/ttl fails on the
// same trial its name does — and an unknown reference is an error
// rather than a narrated trial with no strategy.
func TestExplainResolvesStrategies(t *testing.T) {
	r := NewRunner(42)
	sc := QuickScale()
	vps := VantagePoints()[:sc.VPs]
	servers := Servers(sc.Servers, r.Cal, 42)
	var spec string
	for _, e := range core.Registry() {
		if e.Alias == "teardown-rst/ttl" {
			spec = e.Spec.String()
		}
	}
	vp, srv, trial, ok := r.FindFailingTrial("teardown-rst/ttl", vps, servers, sc.Trials)
	svp, ssrv, strial, sok := r.FindFailingTrial(spec, vps, servers, sc.Trials)
	if !ok || !sok || vp.Name != svp.Name || srv.Name != ssrv.Name || trial != strial {
		t.Fatalf("raw spec %q found a different failure than its name", spec)
	}
	if narrative, _, err := r.ExplainFirstFailure(spec, vps, servers, sc.Trials); err != nil || narrative == "" {
		t.Fatalf("explain by raw spec: %v", err)
	}
	if _, _, err := r.ExplainFirstFailure("no-such-strategy", vps, servers, sc.Trials); err == nil {
		t.Fatal("explain narrated an unknown strategy")
	}
}

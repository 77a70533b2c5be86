package obs

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pool.live")
	g.Set(7)
	g.Add(-3)
	if got := r.Gauge("pool.live").Value(); got != 4 {
		t.Fatalf("gauge = %d", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge not inert")
	}
	snap := r.Snapshot()
	if snap.Gauges["pool.live"] != 4 {
		t.Fatalf("snapshot gauges = %+v", snap.Gauges)
	}
}

func TestGaugeMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.SetGauge("x", 3)
	b.SetGauge("x", 4)
	b.SetGauge("y", -1)
	a.Merge(b)
	s := a.Snapshot()
	if s.Gauges["x"] != 7 || s.Gauges["y"] != -1 {
		t.Fatalf("merged gauges = %+v", s.Gauges)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]uint64{10, 20, 30})
	for _, v := range []uint64{5, 10, 11, 29, 31, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Buckets: <=10, <=20, <=30, overflow.
	want := []uint64{2, 1, 1, 2}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 6 || s.Sum != 5+10+11+29+31+1000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 {
		t.Fatal("nil histogram not inert")
	}
}

func TestHistogramMergeCommutative(t *testing.T) {
	mk := func(vals ...uint64) *Histogram {
		h := NewHistogram(DefaultDurationBuckets)
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	a1, b1 := mk(1, 500, 1e9), mk(2e6, 7e9, 100e9)
	a2, b2 := mk(1, 500, 1e9), mk(2e6, 7e9, 100e9)
	a1.Merge(b1)
	b2.Merge(a2)
	if !reflect.DeepEqual(a1.Snapshot(), b2.Snapshot()) {
		t.Fatalf("merge not commutative:\n%+v\n%+v", a1.Snapshot(), b2.Snapshot())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]uint64{10, 20, 40})
	for i := 0; i < 50; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 40; i++ {
		h.Observe(15) // second bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(999) // overflow
	}
	s := h.Snapshot()
	if q := s.Quantile(0.50); q != 10 {
		t.Fatalf("p50 = %d, want 10", q)
	}
	if q := s.Quantile(0.90); q != 20 {
		t.Fatalf("p90 = %d, want 20", q)
	}
	// Overflow observations report the last finite bound.
	if q := s.Quantile(0.999); q != 40 {
		t.Fatalf("p99.9 = %d, want 40", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
}

func TestRegistryHistogramPinsBounds(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat", []uint64{1, 2})
	h2 := r.Histogram("lat", []uint64{9, 9, 9}) // later bounds ignored
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
	h1.Observe(1)
	if got := r.Snapshot().Histograms["lat"].Bounds; !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("bounds = %v", got)
	}
}

func TestRegistryMergeHistograms(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Observe("lat", DefaultDurationBuckets, uint64(time.Millisecond))
	b.Observe("lat", DefaultDurationBuckets, uint64(time.Second))
	b.Observe("other", DefaultDurationBuckets, 1)
	a.Merge(b)
	s := a.Snapshot()
	if s.Histograms["lat"].Count != 2 || s.Histograms["other"].Count != 1 {
		t.Fatalf("merged histograms = %+v", s.Histograms)
	}
}

func TestTimeSeriesRing(t *testing.T) {
	s := NewTimeSeries(3)
	for i := 0; i < 5; i++ {
		s.Append(SeriesPoint{T: float64(i)})
	}
	snap := s.Snapshot()
	if len(snap.Points) != 3 || snap.Dropped != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Points[0].T != 2 || snap.Last().T != 4 {
		t.Fatalf("window = %+v", snap.Points)
	}
	var nilS *TimeSeries
	nilS.Append(SeriesPoint{})
	if nilS.Len() != 0 || len(nilS.Snapshot().Points) != 0 {
		t.Fatal("nil series not inert")
	}
}

func TestRecorderSpans(t *testing.T) {
	now := time.Duration(0)
	rec := NewRecorder(4, func() time.Duration { return now })
	rec.Record("x", "a", 0, 0, "")
	total := rec.Total()
	rec.AddSpan("handshake", 0, 50*time.Millisecond)
	rec.AddSpan("backwards", 10, 5) // clamped to zero width
	if rec.Total() != total {
		t.Fatal("AddSpan perturbed the event total")
	}
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Dur() != 50*time.Millisecond {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Dur() != 0 {
		t.Fatalf("backwards span not clamped: %+v", spans[1])
	}
	now = 7
	if rec.Now() != 7 {
		t.Fatalf("Now = %v", rec.Now())
	}
	var nilR *Recorder
	nilR.AddSpan("x", 0, 1)
	if nilR.Spans() != nil || nilR.Now() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"netem.drop-loss": "netem_drop_loss",
		"gfw.frag-evict":  "gfw_frag_evict",
		"ok_name:x":       "ok_name:x",
		"9lives":          "_9lives",
		"":                "_",
		"π":               "_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromLabel(t *testing.T) {
	cases := map[string]string{
		`plain`:        `plain`,
		`q"uote`:       `q\"uote`,
		`back\slash`:   `back\\slash`,
		"new\nline":    `new\nline`,
		"π non-ascii✓": "π non-ascii✓", // must pass through unescaped
	}
	for in, want := range cases {
		if got := PromLabel(in); got != want {
			t.Fatalf("PromLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Add("netem.send", 3)
	r.SetGauge("pool.live", 5)
	h := r.Histogram("span.handshake", []uint64{10, 20})
	h.Observe(5)
	h.Observe(25)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b, "intango_"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE intango_netem_send_total counter",
		"intango_netem_send_total 3",
		"# TYPE intango_pool_live gauge",
		"intango_pool_live 5",
		"# TYPE intango_span_handshake histogram",
		`intango_span_handshake_bucket{le="10"} 1`,
		`intango_span_handshake_bucket{le="20"} 1`,
		`intango_span_handshake_bucket{le="+Inf"} 2`,
		"intango_span_handshake_sum 30",
		"intango_span_handshake_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm missing %q:\n%s", want, out)
		}
	}
}

// TestWritePromGolden pins the exposition body byte for byte: counters
// past 2^53 and gauges past 1e6 keep integer form, names are sanitized,
// and histograms are cumulative. The golden was captured from the
// hand-written exposition this writer replaced.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Add("netem.send", 5)
	r.Add("netem.drop-loss", 1234567)
	r.Add("9lives", 18446744073709551615)
	r.SetGauge("intangd.flows-open", -3)
	r.SetGauge("device.queue", 2500000)
	for _, v := range []uint64{0, 1, 7, 1000, 5000000} {
		r.Observe("uis.dial_us", []uint64{1, 10, 1000000}, v)
	}
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b, "intangd_"); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/snapshot.metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("WriteProm drifted from the golden:\n%s", b.String())
	}
}

// TestWriteFamily: one header per family, samples contiguous, label
// values escaped, and a sample-less family still declared.
func TestWriteFamily(t *testing.T) {
	var b strings.Builder
	if err := WriteFamily(&b, "x", "gauge", "Help.",
		PromInt(3),
		PromFloat(0.5, "k", `a"b\`+"\n", "j", "π"),
	); err != nil {
		t.Fatal(err)
	}
	if err := WriteFamily(&b, "empty", "gauge", "None."); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x Help.\n# TYPE x gauge\nx 3\n" +
		`x{k="a\"b\\\n",j="π"} 0.5` + "\n" +
		"# HELP empty None.\n# TYPE empty gauge\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

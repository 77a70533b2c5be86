package experiment

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestProgressTracker exercises the tracker directly: counters, the
// snapshot math, and the metrics rendering.
func TestProgressTracker(t *testing.T) {
	jobs := []trialJob{
		{label: "a"}, {label: "a"}, {label: "b"}, {label: "b"},
	}
	pt := newProgressTracker(jobs, ProgressOptions{
		Interval: time.Hour, // never ticks during the test
	})
	pt.note("a", Success)
	pt.note("a", Failure2)
	pt.note("b", Success)

	s := pt.snapshot()
	if s.Done != 3 || s.Total != 4 || s.Success != 2 || s.Failure2 != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Strategies) != 2 || s.Strategies[0].Strategy != "a" || s.Strategies[0].Success != 1 {
		t.Fatalf("strategies = %+v", s.Strategies)
	}

	var b strings.Builder
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE trials_done gauge",
		"# TYPE strategy_success gauge",
		"trials_done 3", "trials_total 4",
		`strategy_success{strategy="a"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	pt.finish()
	// The sampler runs at construction and at finish, so even a
	// never-ticking tracker retains two bracketing samples.
	series := pt.Series()
	if len(series.Points) < 2 {
		t.Fatalf("series has %d points, want >= 2", len(series.Points))
	}
	last := series.Last()
	if last.Values["done"] != 3 || last.Values["success"] != 2 {
		t.Fatalf("closing sample = %+v", last)
	}
}

// TestProgressMetricsEscaping: strategy labels carry raw spec text;
// the exposition format escapes exactly backslash, quote, and newline
// and passes non-ASCII through unmodified (%q would corrupt it).
func TestProgressMetricsEscaping(t *testing.T) {
	s := ProgressSnapshot{Strategies: []StrategyProgress{
		{Strategy: `rst(disc="ttl\x")` + "\nπ", Done: 1},
	}}
	var b strings.Builder
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	want := `strategy_done{strategy="rst(disc=\"ttl\\x\")\nπ"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("metrics missing %q:\n%s", want, text)
	}
}

// TestProgressNoteOutOfRange: a future Outcome value must not panic
// the tracker; it still counts toward done.
func TestProgressNoteOutOfRange(t *testing.T) {
	pt := newProgressTracker([]trialJob{{label: "a"}}, ProgressOptions{Interval: time.Hour})
	pt.note("a", Outcome(99))
	pt.note("a", Outcome(-1))
	pt.finish()
	if s := pt.snapshot(); s.Done != 2 || s.Success != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// TestRunParallelProgress: a campaign with progress enabled reports
// every trial and writes a final summary line, without perturbing
// results.
func TestRunParallelProgress(t *testing.T) {
	scale := Scale{VPs: 2, Servers: 2, Trials: 1}
	var buf bytes.Buffer
	r := NewRunner(42)
	r.Workers = 4
	r.Obs = NewObsSink()
	r.Progress = &ProgressOptions{Interval: time.Hour, W: &buf}
	rows := RunTable1Parallel(r, scale)

	base := NewRunner(42)
	base.Workers = 4
	base.Obs = NewObsSink()
	baseRows := RunTable1Parallel(base, scale)
	for i := range rows {
		if rows[i] != baseRows[i] {
			t.Fatalf("progress reporting changed results: %+v vs %+v", rows[i], baseRows[i])
		}
	}
	line := buf.String()
	if !strings.Contains(line, "progress:") {
		t.Fatalf("no final progress line: %q", line)
	}
	// The final snapshot must account for every job.
	if !strings.Contains(line, "(100%)") {
		t.Fatalf("final line not at 100%%: %q", line)
	}
}

// TestProgressNilSafe: a nil tracker (progress disabled) must be inert.
func TestProgressNilSafe(t *testing.T) {
	var pt *progressTracker
	pt.note("x", Success)
	pt.finish()
	if v := pt.view(); v.Done != 0 || v.Strategies != nil {
		t.Fatalf("nil tracker view = %+v", v)
	}
}

// TestProgressMetricsGolden pins the campaign /metrics body byte for
// byte against the exposition captured before obs.WriteFamily took
// over: integer gauges past 1e6, %g floats, and escaped spec labels.
func TestProgressMetricsGolden(t *testing.T) {
	s := ProgressSnapshot{
		Done: 1234567, Total: 2000000, TrialsPerSec: 2.5e6, ETASeconds: 0.30927,
		Success: 1000000, Failure1: 200000, Failure2: 34567,
		Strategies: []StrategyProgress{
			{Strategy: "a", Done: 2, Success: 1},
			{Strategy: `q"uo\te` + "\nπ", Done: 1},
			{Strategy: "on:first-payload[teardown(flags=rst,disc=ttl)]", Done: 5, Success: 5},
		},
	}
	var b strings.Builder
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/progress.metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("campaign metrics drifted from the golden:\n%s", b.String())
	}
}

// TestLiveProgressFreezesAtFinish: the runner's live feed follows a
// campaign while it runs and holds its closing snapshot afterwards.
func TestLiveProgressFreezesAtFinish(t *testing.T) {
	r := NewRunner(42)
	if v := r.LiveProgress(); v.Total != 0 {
		t.Fatalf("live progress before any campaign = %+v", v)
	}
	r.Progress = &ProgressOptions{Interval: time.Hour}
	RunTable1Parallel(r, Scale{VPs: 1, Servers: 1, Trials: 1})
	final, ok := r.FinalProgress()
	if !ok || final.Done == 0 || final.Done != final.Total {
		t.Fatalf("final progress = %+v, %v", final, ok)
	}
	time.Sleep(time.Millisecond)
	if live := r.LiveProgress(); live.TrialsPerSec != final.TrialsPerSec || live.Done != final.Done {
		t.Fatalf("live view moved after finish: %+v vs %+v", live, final)
	}
	if len(r.ProgressSeries().Points) < 2 {
		t.Fatal("finished campaign retained fewer than two samples")
	}
}

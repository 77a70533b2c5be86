package experiment

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"intango/internal/obs"
)

// ProgressOptions configures live campaign-progress reporting for
// RunParallel. Reporting only observes atomic counters the workers
// bump — it never touches the trial hot path's determinism.
type ProgressOptions struct {
	// Interval is how often a snapshot line is emitted (default 1s).
	Interval time.Duration
	// W receives the periodic snapshot lines (typically os.Stderr);
	// nil disables printing.
	W io.Writer
	// SeriesCap bounds the sampled time-series ring (default
	// obs.DefaultSeriesCap). The sampler records one point per
	// Interval; when full the oldest points are dropped.
	SeriesCap int
}

// StrategyProgress is the per-strategy slice of a snapshot.
type StrategyProgress struct {
	Strategy string `json:"strategy"`
	Done     int64  `json:"done"`
	Success  int64  `json:"success"`
}

// ProgressSnapshot is one point-in-time view of a running campaign.
type ProgressSnapshot struct {
	Done         int64              `json:"done"`
	Total        int64              `json:"total"`
	TrialsPerSec float64            `json:"trials_per_sec"`
	ETASeconds   float64            `json:"eta_seconds"`
	Success      int64              `json:"success"`
	Failure1     int64              `json:"failure_1"`
	Failure2     int64              `json:"failure_2"`
	Strategies   []StrategyProgress `json:"strategies,omitempty"`
}

// WriteProm renders the snapshot in Prometheus exposition format — the
// /metrics view of a campaign plane. Strategy labels carry raw spec
// text, which obs.WriteFamily escapes.
func (s ProgressSnapshot) WriteProm(w io.Writer) error {
	for _, f := range []struct {
		name, help string
		v          obs.PromSample
	}{
		{"trials_done", "Trials completed so far.", obs.PromInt(s.Done)},
		{"trials_total", "Trials in the campaign.", obs.PromInt(s.Total)},
		{"trials_per_sec", "Campaign throughput.", obs.PromFloat(s.TrialsPerSec)},
		{"eta_seconds", "Estimated seconds to completion.", obs.PromFloat(s.ETASeconds)},
		{"outcome_success", "Trials classified success.", obs.PromInt(s.Success)},
		{"outcome_failure1", "Trials classified failure-1.", obs.PromInt(s.Failure1)},
		{"outcome_failure2", "Trials classified failure-2.", obs.PromInt(s.Failure2)},
	} {
		if err := obs.WriteFamily(w, f.name, "gauge", f.help, f.v); err != nil {
			return err
		}
	}
	if len(s.Strategies) == 0 {
		return nil
	}
	done := make([]obs.PromSample, len(s.Strategies))
	success := make([]obs.PromSample, len(s.Strategies))
	for i, sp := range s.Strategies {
		done[i] = obs.PromInt(sp.Done, "strategy", sp.Strategy)
		success[i] = obs.PromInt(sp.Success, "strategy", sp.Strategy)
	}
	if err := obs.WriteFamily(w, "strategy_done", "gauge", "Trials completed per strategy.", done...); err != nil {
		return err
	}
	return obs.WriteFamily(w, "strategy_success", "gauge", "Successful trials per strategy.", success...)
}

// stratCounters is one strategy's counters. The map of strategies is
// built complete before workers start, so workers only ever do atomic
// increments — no locks, no map writes on the hot path.
type stratCounters struct {
	done, success atomic.Int64
}

// progressTracker accumulates campaign progress across workers.
type progressTracker struct {
	total    int64
	start    time.Time
	done     atomic.Int64
	outcomes [numOutcomes]atomic.Int64
	strats   map[string]*stratCounters
	names    []string // sorted strategy labels
	series   *obs.TimeSeries
	// final is the closing snapshot, stored by finish: from then on the
	// campaign's view stops moving.
	final atomic.Pointer[ProgressSnapshot]

	opts ProgressOptions
	stop chan struct{}
	wg   chan struct{}
}

// newProgressTracker sizes the tracker from the job list (labels are
// known up-front) and starts the sampler ticker.
func newProgressTracker(jobs []trialJob, opts ProgressOptions) *progressTracker {
	t := &progressTracker{
		total:  int64(len(jobs)),
		start:  time.Now(),
		strats: map[string]*stratCounters{},
		series: obs.NewTimeSeries(DefaultSeriesCap(opts)),
		opts:   opts,
		stop:   make(chan struct{}),
		wg:     make(chan struct{}),
	}
	for _, j := range jobs {
		if _, ok := t.strats[j.label]; !ok {
			t.strats[j.label] = &stratCounters{}
			t.names = append(t.names, j.label)
		}
	}
	sort.Strings(t.names)
	t.sample() // t=0 baseline; finish() adds the closing sample
	interval := opts.Interval
	if interval <= 0 {
		interval = time.Second
	}
	go t.loop(interval)
	return t
}

// DefaultSeriesCap resolves the sample-ring capacity for opts (the
// obs default unless overridden).
func DefaultSeriesCap(opts ProgressOptions) int {
	if opts.SeriesCap > 0 {
		return opts.SeriesCap
	}
	return obs.DefaultSeriesCap
}

// note records one finished trial. Called from worker goroutines. An
// out-of-range outcome (a future Outcome value this tracker predates)
// still counts toward done; it must never panic a live campaign.
func (t *progressTracker) note(label string, out Outcome) {
	if t == nil {
		return
	}
	t.done.Add(1)
	if out >= 0 && int(out) < len(t.outcomes) {
		t.outcomes[out].Add(1)
	}
	if sc := t.strats[label]; sc != nil {
		sc.done.Add(1)
		if out == Success {
			sc.success.Add(1)
		}
	}
}

// sample appends one time-series point from the current snapshot. The
// sampler is the one place in the telemetry stack allowed to read the
// wall clock; everything inside a trial is stamped with virtual time.
func (t *progressTracker) sample() {
	s := t.snapshot()
	t.series.Append(obs.SeriesPoint{
		T: time.Since(t.start).Seconds(),
		Values: map[string]float64{
			"done":           float64(s.Done),
			"total":          float64(s.Total),
			"success":        float64(s.Success),
			"failure_1":      float64(s.Failure1),
			"failure_2":      float64(s.Failure2),
			"trials_per_sec": s.TrialsPerSec,
		},
	})
}

// Series returns the sampled window so far.
func (t *progressTracker) Series() obs.TimeSeriesSnapshot {
	if t == nil {
		return obs.TimeSeriesSnapshot{}
	}
	return t.series.Snapshot()
}

// snapshot assembles the current view.
func (t *progressTracker) snapshot() ProgressSnapshot {
	done := t.done.Load()
	s := ProgressSnapshot{
		Done: done, Total: t.total,
		Success:  t.outcomes[Success].Load(),
		Failure1: t.outcomes[Failure1].Load(),
		Failure2: t.outcomes[Failure2].Load(),
	}
	elapsed := time.Since(t.start).Seconds()
	if elapsed > 0 {
		s.TrialsPerSec = float64(done) / elapsed
	}
	if s.TrialsPerSec > 0 && done < t.total {
		s.ETASeconds = float64(t.total-done) / s.TrialsPerSec
	}
	for _, name := range t.names {
		sc := t.strats[name]
		s.Strategies = append(s.Strategies, StrategyProgress{
			Strategy: name, Done: sc.done.Load(), Success: sc.success.Load(),
		})
	}
	return s
}

// Line renders a one-line human summary of a snapshot (the periodic
// progress line; the fleet coordinator reuses it for its own ticker).
func (s ProgressSnapshot) Line() string {
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	out := fmt.Sprintf("progress: %d/%d (%.0f%%) %.1f trials/s S=%d F1=%d F2=%d",
		s.Done, s.Total, pct, s.TrialsPerSec, s.Success, s.Failure1, s.Failure2)
	if s.ETASeconds > 0 {
		out += fmt.Sprintf(" eta=%s", (time.Duration(s.ETASeconds * float64(time.Second))).Round(time.Second))
	}
	return out
}

func (t *progressTracker) loop(interval time.Duration) {
	defer close(t.wg)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.sample()
			if t.opts.W != nil {
				fmt.Fprintln(t.opts.W, t.snapshot().Line())
			}
		case <-t.stop:
			return
		}
	}
}

// finish stops the ticker, freezes the closing snapshot and emits it.
// The closing sample runs before the snapshot freezes, so every
// campaign — however short — retains at least two points (the t=0
// baseline and this one) and the series always ends at the final
// counts.
func (t *progressTracker) finish() {
	if t == nil {
		return
	}
	close(t.stop)
	<-t.wg
	t.sample()
	final := t.snapshot()
	t.final.Store(&final)
	if t.opts.W != nil {
		fmt.Fprintln(t.opts.W, final.Line())
	}
}

// view is the tracker's current snapshot, frozen once the campaign has
// finished; zero for a nil tracker.
func (t *progressTracker) view() ProgressSnapshot {
	if t == nil {
		return ProgressSnapshot{}
	}
	if f := t.final.Load(); f != nil {
		return *f
	}
	return t.snapshot()
}

package fleet

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"intango/internal/experiment"
	"intango/internal/obs"
)

// Shard states — the /shards state machine.
const (
	StatePending      = "pending"
	StateRunning      = "running"
	StateCheckpointed = "checkpointed"
	StateDone         = "done"
	StateFailed       = "failed"
)

// ErrStopped is returned (wrapped) when the fleet was stopped at a
// frame boundary before completing — by the OnFrame hook or Stop. The
// checkpoint directory holds every journaled frame; a new coordinator
// over the same directory resumes from them.
var ErrStopped = errors.New("fleet: stopped before completion")

// Options configures a fleet campaign.
type Options struct {
	// Campaign names the campaign (manifest identity, frame headers).
	// Default "table1".
	Campaign string
	// Shards is how many shards to cut the job cube into (default 8,
	// clamped to the job count).
	Shards int
	// Procs is how many shards run concurrently (default 4). Within a
	// shard execution is strictly serial — the cursor is the exact
	// resume point — so Procs is the fleet's entire parallelism.
	Procs int
	// Dir is the checkpoint directory. Frames are journaled there and
	// a prior campaign's journals are resumed from there. Empty
	// disables checkpointing (the fleet still runs and serves feeds).
	Dir string
	// CheckpointEvery is trials between frames (default
	// experiment.DefaultCheckpointEvery).
	CheckpointEvery int
	// W receives periodic progress lines and diagnostics; nil silences.
	W io.Writer
	// Interval is the fleet sampler cadence (default 1s).
	Interval time.Duration
	// SeriesCap bounds each sampled series ring (default
	// obs.DefaultSeriesCap).
	SeriesCap int
	// OnFrame, when non-nil, observes every journaled checkpoint frame
	// (shard that cut it, total frames journaled fleet-wide). A
	// non-nil error stops the whole fleet at the next frame boundary —
	// the in-process stand-in for kill -9 that the kill/resume tests
	// and fleet-smoke build on.
	OnFrame func(shard, totalFrames int) error
}

// stratCount is one strategy's live fleet counters.
type stratCount struct {
	done, success atomic.Int64
}

// shardRun is one shard's full lifecycle: plan, restored checkpoint,
// live counters, journal, and stitched time series.
type shardRun struct {
	plan ShardPlan

	// Live counters: written by the shard goroutine, read by scrapers.
	done, success, f1, f2 atomic.Int64
	cursor                atomic.Int64

	mu        sync.Mutex // guards the fields below
	state     string
	frames    int
	lastFrame time.Time
	errMsg    string

	// Restored from the journal at plan time.
	resumed      bool
	replayed     int
	quarantined  int
	restoredRefs []FailureRef

	st      *experiment.ShardState
	series  *obs.TimeSeries
	tOffset float64
	journal *journalWriter
}

func (sr *shardRun) setState(s string) {
	sr.mu.Lock()
	sr.state = s
	sr.mu.Unlock()
}

func (sr *shardRun) fail(err error) {
	sr.mu.Lock()
	sr.state = StateFailed
	sr.errMsg = err.Error()
	sr.mu.Unlock()
}

// status snapshots the shard for /shards.
func (sr *shardRun) status(now time.Time) ShardStatus {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	s := ShardStatus{
		ID:       sr.plan.ID,
		State:    sr.state,
		JobStart: sr.plan.JobStart,
		JobEnd:   sr.plan.JobEnd,
		Cursor:   int(sr.cursor.Load()),
		Done:     sr.done.Load(),
		Success:  sr.success.Load(),
		Frames:   sr.frames,
		Resumed:  sr.resumed,
		Error:    sr.errMsg,
	}
	if sr.frames > 0 && !sr.lastFrame.IsZero() {
		s.LastFrameAgeSec = now.Sub(sr.lastFrame).Seconds()
	}
	return s
}

// Coordinator plans, runs, checkpoints, and merges one sharded
// campaign. Build with New (which also replays any prior journals in
// Options.Dir), then call Run once.
type Coordinator struct {
	r    *experiment.Runner
	opts Options
	cube *experiment.Cube
	plan Plan

	manifest Manifest
	shards   []*shardRun

	strats     map[string]*stratCount
	stratNames []string

	start       time.Time
	fleetSeries *obs.TimeSeries
	totalFrames atomic.Int64

	stopFlag atomic.Bool
	stopMu   sync.Mutex
	stopErr  error
}

// New plans the campaign and, when Options.Dir is set, reconciles the
// directory's manifest and replays existing shard journals: shards
// with a final frame are marked done, shards with a partial frame are
// restored to their cursor, and journals with damaged lines are
// quarantined (the shard restarts from its last good frame, or from
// scratch when none survives). The runner's own Obs and Progress are
// not used — every shard runs its own sink, and the coordinator's Feeds
// are the campaign's live views. The campaign clock (throughput, series
// timestamps) starts here, so the feeds are readable from the moment
// New returns.
func New(r *experiment.Runner, sc experiment.Scale, opts Options) (*Coordinator, error) {
	if opts.Campaign == "" {
		opts.Campaign = "table1"
	}
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Procs <= 0 {
		opts.Procs = 4
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = experiment.DefaultCheckpointEvery
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	cube := experiment.Table1Cube(r, sc)
	c := &Coordinator{
		r: r, opts: opts, cube: cube,
		plan: Plan{
			Campaign:  opts.Campaign,
			Seed:      r.Seed,
			Scale:     sc,
			TotalJobs: cube.Len(),
			Shards:    PlanShards(cube.Len(), opts.Shards),
		},
		strats:      map[string]*stratCount{},
		start:       time.Now(),
		fleetSeries: obs.NewTimeSeries(opts.SeriesCap),
	}
	c.stratNames = cube.StrategyLabels()
	sort.Strings(c.stratNames)
	for _, name := range c.stratNames {
		c.strats[name] = &stratCount{}
	}
	m, err := buildManifest(r, sc, c.plan)
	if err != nil {
		return nil, err
	}
	m.Started = time.Now().UTC().Format(time.RFC3339)
	if opts.Dir != "" {
		if err := reconcileManifest(opts.Dir, &m); err != nil {
			return nil, err
		}
	}
	c.manifest = m
	for _, p := range c.plan.Shards {
		sr := &shardRun{plan: p, state: StatePending, series: obs.NewTimeSeries(opts.SeriesCap)}
		sr.cursor.Store(int64(p.JobStart))
		sr.st = experiment.NewShardState(cube, p.JobStart, p.JobEnd)
		if opts.Dir != "" {
			if err := c.restoreShard(sr); err != nil {
				return nil, err
			}
		}
		c.shards = append(c.shards, sr)
	}
	return c, nil
}

// restoreShard replays sr's journal (if any) into its state.
func (c *Coordinator) restoreShard(sr *shardRun) error {
	last, frames, quarantined, err := journalLoad(c.opts.Dir, c.opts.Campaign, sr.plan.ID, sr.plan.JobStart, sr.plan.JobEnd)
	if err != nil {
		return fmt.Errorf("fleet: shard %d journal: %w", sr.plan.ID, err)
	}
	if last != nil {
		if rerr := sr.st.Restore(last.Cursor, last.Tallies, last.Obs); rerr != nil {
			// The frame passed line-level validation but not the cube's —
			// a stale layout. Quarantine the whole journal and restart.
			quarantined += frames
			last, frames = nil, 0
		}
	}
	sr.quarantined = quarantined
	if quarantined > 0 {
		if qerr := quarantineJournal(c.opts.Dir, sr.plan.ID); qerr != nil {
			return fmt.Errorf("fleet: shard %d quarantine: %w", sr.plan.ID, qerr)
		}
		if c.opts.W != nil {
			fmt.Fprintf(c.opts.W, "fleet: shard %d: %d damaged journal lines quarantined\n", sr.plan.ID, quarantined)
		}
		if last != nil {
			// Re-journal the surviving frame immediately (not lazily at
			// shard start): a done shard never re-runs, and its state
			// must survive the quarantine for any later resume.
			jw, jerr := openJournal(c.opts.Dir, sr.plan.ID, last)
			if jerr == nil {
				jerr = jw.close()
			}
			if jerr != nil {
				return fmt.Errorf("fleet: shard %d re-journal: %w", sr.plan.ID, jerr)
			}
		}
	}
	if last == nil {
		return nil
	}
	sr.resumed = true
	sr.replayed = last.Cursor - sr.plan.JobStart
	sr.restoredRefs = append([]FailureRef(nil), last.Failures...)
	sr.mu.Lock()
	sr.frames = frames
	sr.mu.Unlock()
	sr.cursor.Store(int64(last.Cursor))
	// Re-seed live counters from the restored tallies so /progress and
	// per-strategy rollups include the replayed trials.
	var succ, f1, f2 int64
	for i, t := range last.Tallies {
		succ += int64(t.Success)
		f1 += int64(t.Failure1)
		f2 += int64(t.Failure2)
		if sc := c.strats[c.cube.TallyLabel(i)]; sc != nil {
			sc.done.Add(int64(t.Total))
			sc.success.Add(int64(t.Success))
		}
	}
	sr.done.Store(int64(sr.replayed))
	sr.success.Store(succ)
	sr.f1.Store(f1)
	sr.f2.Store(f2)
	// Stitch the shard's curve: restored points keep their original
	// timestamps and new samples continue from the last one, so the
	// /timeseries curve crosses the kill point without a gap or reset.
	for _, p := range last.Series.Points {
		sr.series.Append(p)
	}
	sr.tOffset = last.Series.Last().T
	if last.Final || last.Cursor == sr.plan.JobEnd {
		sr.setState(StateDone)
	} else {
		sr.setState(StateCheckpointed)
	}
	return nil
}

// Plan returns the campaign's shard plan.
func (c *Coordinator) Plan() Plan { return c.plan }

// Manifest returns the campaign's provenance document.
func (c *Coordinator) Manifest() Manifest { return c.manifest }

// Stop requests a stop at every shard's next frame boundary.
func (c *Coordinator) Stop() { c.stop(ErrStopped) }

func (c *Coordinator) stop(err error) {
	c.stopMu.Lock()
	if c.stopErr == nil {
		c.stopErr = err
	}
	c.stopMu.Unlock()
	c.stopFlag.Store(true)
}

func (c *Coordinator) stopped() error {
	if !c.stopFlag.Load() {
		return nil
	}
	c.stopMu.Lock()
	defer c.stopMu.Unlock()
	return c.stopErr
}

// Run executes every incomplete shard across Procs workers, journaling
// checkpoint frames as it goes, and folds the shards into the merged
// Result. Because every fold is commutative the merged tallies,
// registry snapshot, and retained failure set are bit-identical to an
// uninterrupted serial run — however many kills and resumes happened
// along the way.
func (c *Coordinator) Run() (*Result, error) {
	c.sampleFleet()
	stopSampler := c.startSampler()

	work := make(chan *shardRun)
	var wg sync.WaitGroup
	for w := 0; w < c.opts.Procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sr := range work {
				c.runShard(sr)
			}
		}()
	}
	for _, sr := range c.shards {
		sr.mu.Lock()
		done := sr.state == StateDone
		sr.mu.Unlock()
		if done {
			continue
		}
		if c.stopped() != nil {
			break
		}
		work <- sr
	}
	close(work)
	wg.Wait()

	stopSampler()
	c.sampleFleet()
	if c.opts.W != nil {
		fmt.Fprintln(c.opts.W, "fleet: "+c.progress().Line())
	}
	if err := c.stopped(); err != nil {
		return nil, fmt.Errorf("%w (checkpoints retained in %s)", err, c.opts.Dir)
	}
	var failed []string
	for _, sr := range c.shards {
		sr.mu.Lock()
		if sr.state == StateFailed {
			failed = append(failed, fmt.Sprintf("shard %d: %s", sr.plan.ID, sr.errMsg))
		}
		sr.mu.Unlock()
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("fleet: %d shard(s) failed: %v", len(failed), failed)
	}
	return c.merge(), nil
}

// runShard executes one shard's remaining range, checkpointing every
// CheckpointEvery trials and at the end of the range.
func (c *Coordinator) runShard(sr *shardRun) {
	sr.setState(StateRunning)
	if c.opts.Dir != "" {
		jw, err := openJournal(c.opts.Dir, sr.plan.ID, nil)
		if err != nil {
			sr.fail(err)
			return
		}
		sr.journal = jw
		defer func() {
			if cerr := sr.journal.close(); cerr != nil {
				sr.fail(cerr)
			}
		}()
	}
	shardStart := time.Now()
	onTrial := func(label string, out experiment.Outcome) {
		sr.done.Add(1)
		sr.cursor.Add(1)
		switch out {
		case experiment.Success:
			sr.success.Add(1)
		case experiment.Failure1:
			sr.f1.Add(1)
		default:
			sr.f2.Add(1)
		}
		if sc := c.strats[label]; sc != nil {
			sc.done.Add(1)
			if out == experiment.Success {
				sc.success.Add(1)
			}
		}
	}
	checkpoint := func(final bool) bool {
		// Terminal sample first, so the frame's series ends exactly at
		// this cut — a resumed /timeseries curve has no gap at a kill.
		sr.series.Append(obs.SeriesPoint{
			T: sr.tOffset + time.Since(shardStart).Seconds(),
			Values: map[string]float64{
				"cursor":    float64(sr.st.Cursor),
				"done":      float64(sr.done.Load()),
				"success":   float64(sr.success.Load()),
				"failure_1": float64(sr.f1.Load()),
				"failure_2": float64(sr.f2.Load()),
			},
		})
		if sr.journal != nil {
			frame := Frame{
				Version:  FrameVersion,
				Campaign: c.opts.Campaign,
				Shard:    sr.plan.ID,
				Cursor:   sr.st.Cursor,
				Final:    final,
				Tallies:  append([]experiment.Tally(nil), sr.st.Tallies...),
				Obs:      sr.st.Sink.Snapshot(),
				Failures: mergeRefs(sr.restoredRefs, refsFromTraces(sr.st.Sink.Failures()), sr.st.Sink.MaxFailures),
				Series:   sr.series.Snapshot(),
			}
			if err := sr.journal.append(frame); err != nil {
				sr.fail(err)
				return false
			}
		}
		sr.mu.Lock()
		sr.frames++
		sr.lastFrame = time.Now()
		if !final {
			sr.state = StateCheckpointed
		}
		sr.mu.Unlock()
		total := int(c.totalFrames.Add(1))
		if c.opts.OnFrame != nil {
			if err := c.opts.OnFrame(sr.plan.ID, total); err != nil {
				c.stop(fmt.Errorf("%w: %v", ErrStopped, err))
				return false
			}
		}
		if c.stopped() != nil {
			return false
		}
		if !final {
			sr.setState(StateRunning)
		}
		return true
	}
	c.r.RunCubeRange(c.cube, sr.st, c.opts.CheckpointEvery, onTrial, checkpoint)
	sr.mu.Lock()
	if sr.state != StateFailed && sr.st.Cursor == sr.st.End {
		sr.state = StateDone
	}
	sr.mu.Unlock()
}

// progress assembles the fleet-wide ProgressSnapshot from shard
// counters.
func (c *Coordinator) progress() experiment.ProgressSnapshot {
	var done, succ, f1, f2, replayed int64
	for _, sr := range c.shards {
		done += sr.done.Load()
		succ += sr.success.Load()
		f1 += sr.f1.Load()
		f2 += sr.f2.Load()
		replayed += int64(sr.replayed)
	}
	s := experiment.ProgressSnapshot{
		Done: done, Total: int64(c.cube.Len()),
		Success: succ, Failure1: f1, Failure2: f2,
	}
	elapsed := time.Since(c.start).Seconds()
	if elapsed > 0 {
		// Throughput counts fresh trials only: replayed trials were
		// recovered from checkpoints, not run.
		s.TrialsPerSec = float64(done-replayed) / elapsed
	}
	if s.TrialsPerSec > 0 && done < s.Total {
		s.ETASeconds = float64(s.Total-done) / s.TrialsPerSec
	}
	for _, name := range c.stratNames {
		sc := c.strats[name]
		s.Strategies = append(s.Strategies, experiment.StrategyProgress{
			Strategy: name, Done: sc.done.Load(), Success: sc.success.Load(),
		})
	}
	return s
}

// shardsView assembles the /shards payload.
func (c *Coordinator) shardsView() ShardsView {
	now := time.Now()
	sv := ShardsView{Campaign: c.opts.Campaign, Total: c.cube.Len()}
	for _, sr := range c.shards {
		st := sr.status(now)
		sv.Shards = append(sv.Shards, st)
		sv.Done += st.Done
		if st.State == StateDone {
			sv.ShardsDone++
		}
	}
	return sv
}

// seriesView assembles the /timeseries payload.
func (c *Coordinator) seriesView() SeriesView {
	v := SeriesView{Fleet: c.fleetSeries.Snapshot(), Shards: map[string]obs.TimeSeriesSnapshot{}}
	for _, sr := range c.shards {
		v.Shards[fmt.Sprintf("%d", sr.plan.ID)] = sr.series.Snapshot()
	}
	return v
}

// Feeds returns the live views of the campaign for a plane to serve.
// They may be read from the moment New returns, concurrently with Run.
func (c *Coordinator) Feeds() Feeds {
	return Feeds{
		Shards:   c.shardsView,
		Progress: c.progress,
		Series:   c.seriesView,
		Manifest: func() Manifest { return c.manifest },
	}
}

// sampleFleet appends one fleet-level sample.
func (c *Coordinator) sampleFleet() {
	s := c.progress()
	sv := c.shardsView()
	c.fleetSeries.Append(obs.SeriesPoint{
		T: time.Since(c.start).Seconds(),
		Values: map[string]float64{
			"done":           float64(s.Done),
			"total":          float64(s.Total),
			"success":        float64(s.Success),
			"failure_1":      float64(s.Failure1),
			"failure_2":      float64(s.Failure2),
			"trials_per_sec": s.TrialsPerSec,
			"shards_done":    float64(sv.ShardsDone),
		},
	})
}

// startSampler runs the fleet sampler ticker; the returned stop blocks
// until the sampler goroutine exits.
func (c *Coordinator) startSampler() (stop func()) {
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(c.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.sampleFleet()
				if c.opts.W != nil {
					fmt.Fprintln(c.opts.W, "fleet: "+c.progress().Line())
				}
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-finished
	}
}

// merge folds every shard into the campaign Result. All folds are
// commutative (tally addition, registry merge, min-N ref union), so
// the output is independent of shard boundaries, execution order, and
// how many kill/resume cycles the campaign survived.
func (c *Coordinator) merge() *Result {
	tallies := make([]experiment.Tally, c.cube.NumTallies())
	reg := obs.NewRegistry()
	trials := 0
	var refs []FailureRef
	maxRefs := experiment.DefaultMaxFailures
	res := &Result{Plan: c.plan, Resume: experiment.ResumeHealth{}}
	now := time.Now()
	for _, sr := range c.shards {
		for i, t := range sr.st.Tallies {
			tallies[i].Success += t.Success
			tallies[i].Failure1 += t.Failure1
			tallies[i].Failure2 += t.Failure2
			tallies[i].Total += t.Total
		}
		reg.Merge(sr.st.Sink.Registry)
		trials += sr.st.Sink.Trials()
		refs = mergeRefs(refs, mergeRefs(sr.restoredRefs, refsFromTraces(sr.st.Sink.Failures()), maxRefs), maxRefs)
		if sr.resumed {
			if sr.replayed == sr.plan.Jobs() {
				res.Resume.CompletedShards++
			} else {
				res.Resume.ResumedShards++
			}
			res.Resume.ReplayedTrials += sr.replayed
		}
		res.Resume.QuarantinedFrames += sr.quarantined
		res.Shards = append(res.Shards, sr.status(now))
	}
	res.Tallies = tallies
	res.Rows = c.cube.Fold(tallies)
	res.Snapshot = reg.Snapshot()
	res.Trials = trials
	res.Failures = refs
	res.Series = c.seriesView()
	return res
}

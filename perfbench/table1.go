package main

import (
	"reflect"
	"runtime"
	"time"

	"intango/internal/core"
	"intango/internal/experiment"
	"intango/internal/packet"
)

// The table1-campaign workload runs the Table 1 job cube through
// experiment.RunTable1Parallel at QuickScale with Runner.Workers =
// nproc: the call `tables -what 1` makes. One call is every Table 1
// strategy × 11 vantage points × 12 servers × 2 trials × both keyword
// arms, 7,920 trials; an op is one trial.
//
// The calls cycle over table1Runners runners, runner i seeded
// subSeed(seed, i), so over eight populations of 12 servers: one
// population's servers move a call's CPU per trial by a sixth from seed
// to seed, so much that a one-runner workload spreads as wide as a gate
// may allow. The runners live for the whole run, so each one's later
// calls reproduce its first call's rows and the program's caches fill
// on each runner's first call.

var table1Scale = experiment.QuickScale()

const table1Runners = 8

// table1Jobs is the trial count of one campaign call.
func table1Jobs() int {
	return len(experiment.Table1StrategySpecs()) * table1Scale.VPs *
		table1Scale.Servers * table1Scale.Trials * 2
}

// table1Run is one run of the workload.
type table1Run struct {
	cfg     config
	runners []*experiment.Runner
	refs    [][]experiment.Table1Row // each runner's rows from its first call
	calls   int                      // calls made
}

// newRunner returns runner i of the run: seeded subSeed(seed, i),
// Workers = nproc.
func (b *table1Run) newRunner(i int) *experiment.Runner {
	r := experiment.NewRunner(subSeed(b.cfg.seed, i))
	r.Workers = b.cfg.nproc
	return r
}

// setup does what a call does before its first op on a new runner i —
// build the population and the job cube — then runs the cube's first
// trial: the end of set-up.
func (b *table1Run) setup(i int) {
	r := b.newRunner(i)
	cube := experiment.Table1Cube(r, table1Scale)
	r.RunCubeRange(cube, experiment.NewShardState(cube, 0, 1), 1, nil, nil)
}

// loop makes calls until d has passed, feeding m. A call fails all its
// ops when its tallies do not cover the job count or its rows differ
// from its runner's first call.
func (b *table1Run) loop(d time.Duration, m *e2e) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		i := b.calls % len(b.runners)
		t0, c0 := time.Now(), cpuTime()
		rows := experiment.RunTable1Parallel(b.runners[i], table1Scale)
		s := callSample{runner: i, ops: table1Jobs(), wall: time.Since(t0), cpu: cpuTime() - c0}
		b.calls++
		if b.refs[i] == nil {
			b.refs[i] = rows
		}
		total := 0
		for _, row := range rows {
			total += row.Sensitive.Total + row.Clean.Total
		}
		m.attempted += table1Jobs()
		if total != table1Jobs() || !reflect.DeepEqual(rows, b.refs[i]) {
			m.failed += table1Jobs()
		}
		m.addLat(i, s.wall)
		m.calls = append(m.calls, s)
	}
}

// verify recomputes runner 0's rows with the serial RunTable1 on a
// fresh runner, untimed. If they disagree, every call made fails.
func (b *table1Run) verify() (failed int, notes []string) {
	if reflect.DeepEqual(experiment.RunTable1(b.newRunner(0), table1Scale), b.refs[0]) {
		return 0, nil
	}
	return b.calls * table1Jobs(), []string{"runner 0: rows differ from the serial reference"}
}

// runTable1 measures the workload: repeated timed set-ups, the measured
// loop, then the untimed checks. With cfg.trace it runs the traced
// variant instead.
func runTable1(cfg config) (outcome, error) {
	b := &table1Run{cfg: cfg, refs: make([][]experiment.Table1Row, table1Runners)}
	for i := 0; i < table1Runners; i++ {
		b.runners = append(b.runners, b.newRunner(i))
	}
	if cfg.trace {
		v := zeroPerLayer()
		attempted, failed, err := b.trace(v)
		if err != nil {
			return outcome{}, err
		}
		vfailed, notes := b.verify()
		rfailed, rnotes := b.replay(v)
		failed = min(attempted, failed+vfailed+rfailed)
		return outcome{attempted: attempted, failed: failed, values: v, notes: append(notes, rnotes...)}, nil
	}
	var setups []time.Duration
	for start := time.Now(); moreSetups(len(setups), start); {
		runtime.GC() // no garbage of the previous set-up billed to this one
		t0 := time.Now()
		// Cycled over the runners, so the median is not one server's.
		b.setup(len(setups) % table1Runners)
		setups = append(setups, time.Since(t0))
	}
	heap := newHeapWatch()
	defer heap.close()
	m := e2e{setups: setups, heap: heap}
	m.ph = startPhase()
	b.loop(cfg.measure(), &m)
	m.ph.stop()
	failed, notes := b.verify()
	m.failed = min(m.attempted, m.failed+failed)
	return outcome{attempted: m.attempted, failed: m.failed, values: m.values(), notes: notes}, nil
}

// trace is the traced run: a third of the measuring time untraced, as
// the overhead base, then the rest under the CPU and mutex profiles
// with one ObsSink on every runner. It fills v with the profile,
// counter and pool metrics and returns the ops of both parts; the
// traced calls are held to the rows the untraced ones produced.
func (b *table1Run) trace(v map[string]float64) (attempted, failed int, err error) {
	untracedD, tracedD := splitTraced(b.cfg.measure())
	var base e2e
	base.ph = startPhase()
	b.loop(untracedD, &base)
	base.ph.stop()

	sink := experiment.NewObsSink()
	for _, r := range b.runners {
		r.Obs = sink
	}
	pool0 := b.poolStats()
	var traced e2e
	tr, err := startTrace()
	if err != nil {
		return 0, 0, err
	}
	b.loop(tracedD, &traced)
	res, err := tr.stop()
	for _, r := range b.runners {
		r.Obs = nil
	}
	pool1 := b.poolStats()
	if err != nil {
		return 0, 0, err
	}
	if err := res.fill(v, traced.attempted, perOpUs(base)); err != nil {
		return 0, 0, err
	}
	fillCounters(v, sink.Snapshot().Counters, traced.attempted)
	fillPool(v, pool1, pool0, traced.attempted)
	return base.attempted + traced.attempted, base.failed + traced.failed, nil
}

// poolStats sums the runners' packet-pool traffic.
func (b *table1Run) poolStats() packet.PoolStats {
	var s packet.PoolStats
	for _, r := range b.runners {
		p := r.PoolStats()
		s.Gets += p.Gets
		s.Puts += p.Puts
		s.News += p.News
	}
	return s
}

// replay replays runner 0's campaign serially through RunOne in cube
// order on a fresh runner, with wrapped factories, timing each trial
// and its build. The replay must reproduce the parallel campaign's
// tallies; if it does not, its ops fail.
func (b *table1Run) replay(v map[string]float64) (failed int, notes []string) {
	var builds, trials []float64
	st := &strategyStats{}
	rows := replayCampaign(b.newRunner(0), st, &builds, &trials)
	if !sameTallies(rows, b.refs[0]) {
		failed = table1Jobs()
		notes = append(notes, "wrapped serial replay differs from the parallel campaign")
	}
	ops := float64(table1Jobs())
	v["experiment.build_us_p50"] = quantile(builds, 0.5)
	v["experiment.trial_us_p50"] = quantile(trials, 0.5)
	v["experiment.trial_us_p99"] = quantile(trials, 0.99)
	v["core.outbound_calls_per_op"] = float64(st.calls) / ops
	v["core.emissions_per_op"] = float64(st.emissions) / ops
	if st.calls > 0 {
		v["core.outbound_ns_per_call"] = float64(st.busy.Nanoseconds()) / float64(st.calls)
	}
	return failed, notes
}

// replayCampaign runs r's Table 1 campaign serially in the cube's job
// order with every factory wrapped. Each trial's span (µs) is appended
// to trials, and the span from RunOne's entry to the engine's strategy
// request — the trial's build — to builds.
func replayCampaign(r *experiment.Runner, st *strategyStats, builds, trials *[]float64) []experiment.Table1Row {
	vps := experiment.VantagePoints()[:table1Scale.VPs]
	servers := experiment.Servers(table1Scale.Servers, r.Cal, r.Seed)
	var rows []experiment.Table1Row
	for _, spec := range experiment.Table1StrategySpecs() {
		f, err := core.CompileSpecAs(spec.Name, spec.Spec)
		if err != nil {
			panic(err) // the registry's own specs
		}
		var start time.Time
		built := false
		f = wrapFactory(f, st, func() {
			if !built {
				built = true
				*builds = append(*builds, float64(time.Since(start).Nanoseconds())/1e3)
			}
		})
		var row experiment.Table1Row
		run := func(vp experiment.VantagePoint, srv experiment.Server, sensitive bool, trial int) experiment.Outcome {
			start, built = time.Now(), false
			out := r.RunOne(vp, srv, f, sensitive, trial)
			*trials = append(*trials, float64(time.Since(start).Nanoseconds())/1e3)
			return out
		}
		for _, vp := range vps {
			for _, srv := range servers {
				for t := 0; t < table1Scale.Trials; t++ {
					row.Sensitive.Add(run(vp, srv, true, t))
					row.Clean.Add(run(vp, srv, false, t+table1Scale.Trials))
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// sameTallies compares replayed tallies with campaign rows, row by row.
func sameTallies(replay, rows []experiment.Table1Row) bool {
	if len(replay) != len(rows) {
		return false
	}
	for i := range rows {
		if replay[i].Sensitive != rows[i].Sensitive || replay[i].Clean != rows[i].Clean {
			return false
		}
	}
	return true
}

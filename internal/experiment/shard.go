package experiment

import (
	"fmt"

	"intango/internal/core"
	"intango/internal/obs"
)

// The shard substrate under internal/fleet: a campaign's job cube built
// once, deterministic contiguous shards over it, and a serial range
// runner with checkpoint hooks. Shards accumulate into private tallies
// and ObsSink shards — the same commutative-merge contract RunParallel
// relies on — so any partition of the cube, run in any order, possibly
// killed and resumed from journaled snapshots, folds back to results
// bit-identical to an uninterrupted serial run.

// Cube is a campaign's fully enumerated job list plus the tally layout
// the jobs index into. The enumeration order is a pure function of the
// runner's seed and the scale, so two processes planning the same
// campaign derive identical cubes — the property shard plans and
// checkpoint cursors depend on.
type Cube struct {
	jobs       []trialJob
	rows       []Table1Row
	numTallies int
	labels     []string // strategy label per tally index
	stratOrder []string // unique strategy labels in first-seen order
}

// Table1Cube enumerates the Table 1 campaign for (r, sc): every
// strategy × vantage point × server × trial, sensitive and clean arms,
// each job against r.Censor. RunTable1 and RunTable1Parallel run
// exactly this job list.
func Table1Cube(r *Runner, sc Scale) *Cube {
	vps := VantagePoints()[:min(sc.VPs, 11)]
	servers := Servers(sc.Servers, r.Cal, r.Seed)
	specs := table1Strategies()
	c := &Cube{numTallies: 2 * len(specs)}
	c.rows = make([]Table1Row, len(specs))
	c.labels = make([]string, c.numTallies)
	for i, spec := range specs {
		c.rows[i] = Table1Row{Strategy: spec.group, Discrepancy: spec.disc}
		c.labels[2*i] = spec.name
		c.labels[2*i+1] = spec.name
		c.stratOrder = append(c.stratOrder, spec.name)
		factory := spec.compile()
		for _, vp := range vps {
			for _, srv := range servers {
				for trial := 0; trial < sc.Trials; trial++ {
					c.jobs = append(c.jobs,
						trialJob{vp, srv, factory, true, trial, 2 * i, spec.name, r.Censor},
						trialJob{vp, srv, factory, false, trial + sc.Trials, 2*i + 1, spec.name, r.Censor})
				}
			}
		}
	}
	return c
}

// Len returns the number of jobs in the cube.
func (c *Cube) Len() int { return len(c.jobs) }

// NumTallies returns how many tally sinks the cube's jobs index.
func (c *Cube) NumTallies() int { return c.numTallies }

// TallyLabel returns the strategy label tally index i accumulates for —
// how a restored checkpoint frame's tallies are re-attributed to
// per-strategy progress counters.
func (c *Cube) TallyLabel(i int) string { return c.labels[i] }

// StrategyLabels returns the cube's unique strategy labels in campaign
// order.
func (c *Cube) StrategyLabels() []string {
	return append([]string(nil), c.stratOrder...)
}

// Fold writes the merged tallies into the cube's row skeletons and
// returns the finished rows. tallies must have NumTallies entries.
func (c *Cube) Fold(tallies []Tally) []Table1Row {
	rows := append([]Table1Row(nil), c.rows...)
	for i := range rows {
		rows[i].Sensitive = tallies[2*i]
		rows[i].Clean = tallies[2*i+1]
	}
	return rows
}

// DefaultCheckpointEvery is how many trials a shard runs between
// checkpoint frames when the coordinator does not override it.
const DefaultCheckpointEvery = 64

// ShardState is the cumulative result of one shard's slice of the cube:
// jobs [Start, End), of which [Start, Cursor) have been folded into
// Tallies and Sink. A fresh shard starts with Cursor == Start; a
// resumed shard restores Cursor, Tallies, and the Sink registry from
// its last checkpoint frame and continues, producing state bit-identical
// to an uninterrupted run of the full range.
type ShardState struct {
	Start, End int
	Cursor     int
	Tallies    []Tally
	Sink       *ObsSink
}

// NewShardState returns a fresh state for jobs [start, end) of the cube.
func NewShardState(c *Cube, start, end int) *ShardState {
	return &ShardState{
		Start: start, End: end, Cursor: start,
		Tallies: make([]Tally, c.numTallies),
		Sink:    NewObsSink(),
	}
}

// Restore rehydrates the state from a checkpoint frame's cumulative
// payload: the trial cursor, the tallies, and the serialized registry
// snapshot (folded through the commutative snapshot merge). The
// restored sink counts the replayed trials but retains no failure
// traces or per-trial event volumes — those live only in frames (as
// refs) and in memory.
func (st *ShardState) Restore(cursor int, tallies []Tally, snap obs.Snapshot) error {
	if cursor < st.Start || cursor > st.End {
		return fmt.Errorf("cursor %d outside shard range [%d,%d)", cursor, st.Start, st.End)
	}
	if len(tallies) != len(st.Tallies) {
		return fmt.Errorf("frame carries %d tallies, cube has %d", len(tallies), len(st.Tallies))
	}
	st.Cursor = cursor
	copy(st.Tallies, tallies)
	st.Sink.Registry.MergeSnapshot(snap)
	st.Sink.trials = cursor - st.Start
	return nil
}

// RunCubeRange executes the shard's remaining jobs [st.Cursor, st.End)
// serially, folding each outcome into st. After every `every` completed
// trials — and always after the range's final trial — it calls
// checkpoint with final reporting whether the range is complete;
// checkpoint returning false stops the shard at that frame boundary
// (the coordinator's abort path). onTrial, when non-nil, observes every
// completed trial (live fleet progress counters; it must not block).
// Within a shard execution is strictly serial, so Cursor is always the
// exact resume point.
func (r *Runner) RunCubeRange(c *Cube, st *ShardState, every int, onTrial func(label string, out Outcome), checkpoint func(final bool) bool) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	since := 0
	// A shard runs as one executor worker folding straight into st.
	w := worker{r: r, tallies: st.Tallies, sink: st.Sink}
	for st.Cursor < st.End {
		job := &c.jobs[st.Cursor]
		out := w.run(job)
		st.Cursor++
		since++
		if onTrial != nil {
			onTrial(job.label, out)
		}
		if checkpoint != nil && (since >= every || st.Cursor == st.End) {
			since = 0
			if !checkpoint(st.Cursor == st.End) {
				return
			}
		}
	}
	st.Sink.Finish()
}

// StrategySpec names one campaign strategy together with its canonical
// spec text — the provenance line a fleet manifest records for it.
type StrategySpec struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// Table1StrategySpecs returns the Table 1 strategy set with each spec
// canonicalized through the grammar round trip, in campaign order.
func Table1StrategySpecs() []StrategySpec {
	specs := table1Strategies()
	out := make([]StrategySpec, len(specs))
	for i, s := range specs {
		parsed, err := core.ParseSpec(s.spec)
		if err != nil {
			panic(fmt.Sprintf("experiment: bad table spec %s: %v", s.name, err))
		}
		out[i] = StrategySpec{Name: s.name, Spec: parsed.String()}
	}
	return out
}

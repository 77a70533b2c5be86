package experiment

import (
	"reflect"
	"testing"

	"intango/internal/core"
)

// TestCubeRangeMatchesParallel: running the whole cube serially through
// the shard range runner reproduces RunTable1Parallel bit for bit —
// rows, tallies, counters, and retained failure traces.
func TestCubeRangeMatchesParallel(t *testing.T) {
	sc := Scale{VPs: 2, Servers: 2, Trials: 1}

	ref := NewRunner(42)
	ref.Workers = 4
	ref.Obs = NewObsSink()
	wantRows := RunTable1Parallel(ref, sc)

	r := NewRunner(42)
	cube := Table1Cube(r, sc)
	st := NewShardState(cube, 0, cube.Len())
	checkpoints := 0
	r.RunCubeRange(cube, st, 7, nil, func(final bool) bool {
		checkpoints++
		return true
	})
	if st.Cursor != cube.Len() {
		t.Fatalf("cursor %d, want %d", st.Cursor, cube.Len())
	}
	if checkpoints < cube.Len()/7 {
		t.Fatalf("only %d checkpoints for %d jobs at every=7", checkpoints, cube.Len())
	}
	if gotRows := cube.Fold(st.Tallies); !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("cube range rows differ:\ngot:  %+v\nwant: %+v", gotRows, wantRows)
	}
	if got, want := st.Sink.Snapshot(), ref.Obs.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("cube range snapshot differs:\ngot:  %+v\nwant: %+v", got, want)
	}
	st.Sink.Finish()
	if !reflect.DeepEqual(st.Sink.Failures(), ref.Obs.Failures()) {
		t.Errorf("cube range failure retention differs")
	}
}

// TestShardRestoreResumeEquivalence mirrors one kill/resume cycle at
// the ShardState layer: run to a mid-range checkpoint, serialize the
// frame payload, restore into a fresh state, finish — the result must
// equal an uninterrupted run of the same range.
func TestShardRestoreResumeEquivalence(t *testing.T) {
	sc := Scale{VPs: 2, Servers: 2, Trials: 1}
	r := NewRunner(42)
	cube := Table1Cube(r, sc)
	start, end := cube.Len()/4, 3*cube.Len()/4

	full := NewShardState(cube, start, end)
	r.RunCubeRange(cube, full, 0, nil, nil)

	// First leg: stop at the first checkpoint past ten trials.
	first := NewShardState(cube, start, end)
	r2 := NewRunner(42)
	r2.RunCubeRange(cube, first, 10, nil, func(final bool) bool { return false })
	if first.Cursor == start || first.Cursor == end {
		t.Fatalf("first leg stopped at %d of [%d,%d)", first.Cursor, start, end)
	}

	// Frame payload: cursor, tallies, snapshot. Restore and finish.
	resumed := NewShardState(cube, start, end)
	if err := resumed.Restore(first.Cursor, first.Tallies, first.Sink.Snapshot()); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(42)
	r3.RunCubeRange(cube, resumed, 0, nil, nil)

	if !reflect.DeepEqual(resumed.Tallies, full.Tallies) {
		t.Errorf("resumed tallies differ:\ngot:  %+v\nwant: %+v", resumed.Tallies, full.Tallies)
	}
	if got, want := resumed.Sink.Snapshot(), full.Sink.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed snapshot differs:\ngot:  %+v\nwant: %+v", got, want)
	}
	if resumed.Sink.Trials() != full.Sink.Trials() {
		t.Errorf("resumed trials %d, want %d", resumed.Sink.Trials(), full.Sink.Trials())
	}
}

// TestShardRestoreRejectsBadFrames: cursors outside the shard range and
// tally vectors that do not match the cube layout are refused — the
// journal loader quarantines such frames instead of corrupting state.
func TestShardRestoreRejectsBadFrames(t *testing.T) {
	r := NewRunner(42)
	cube := Table1Cube(r, Scale{VPs: 1, Servers: 1, Trials: 1})
	st := NewShardState(cube, 2, 6)
	if err := st.Restore(1, make([]Tally, cube.NumTallies()), NewObsSink().Snapshot()); err == nil {
		t.Error("cursor below range accepted")
	}
	if err := st.Restore(7, make([]Tally, cube.NumTallies()), NewObsSink().Snapshot()); err == nil {
		t.Error("cursor past range accepted")
	}
	if err := st.Restore(3, make([]Tally, 2), NewObsSink().Snapshot()); err == nil {
		t.Error("short tally vector accepted")
	}
	if err := st.Restore(3, make([]Tally, cube.NumTallies()), NewObsSink().Snapshot()); err != nil {
		t.Errorf("valid frame refused: %v", err)
	}
}

// TestTable1StrategySpecsCanonical: the manifest's provenance lines are
// canonical spec text in campaign order, matching the cube's labels.
func TestTable1StrategySpecsCanonical(t *testing.T) {
	specs := Table1StrategySpecs()
	if len(specs) == 0 {
		t.Fatal("no strategy specs")
	}
	r := NewRunner(42)
	cube := Table1Cube(r, Scale{VPs: 1, Servers: 1, Trials: 1})
	labels := cube.StrategyLabels()
	if len(labels) != len(specs) {
		t.Fatalf("%d cube labels vs %d specs", len(labels), len(specs))
	}
	for i, s := range specs {
		if s.Name != labels[i] {
			t.Errorf("spec %d name %q != cube label %q", i, s.Name, labels[i])
		}
		parsed, err := core.ParseSpec(s.Spec)
		if err != nil {
			t.Errorf("%s: spec does not parse: %v", s.Name, err)
			continue
		}
		if parsed.String() != s.Spec {
			t.Errorf("%s: spec %q not canonical (want %q)", s.Name, s.Spec, parsed.String())
		}
	}
}

// TestFleetDisabledZeroAlloc pins the non-fleet trial hot path at the
// hot-path allocation budget: the shard substrate (cube enumeration,
// checkpoint hooks, restore plumbing) must cost a plain RunOne
// nothing. Companion to TestTelemetryDisabledZeroAlloc, and run by
// `make bench-obs` as a hard gate.
func TestFleetDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	r := NewRunner(42)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 42)[0]
	f := core.BuiltinFactories()["teardown-rst/ttl"]
	for i := 0; i < 200; i++ {
		r.RunOne(vp, srv, f, true, 0) // warm the packet pool past GC churn
	}
	// Same budget as TestTelemetryDisabledZeroAlloc.
	avg := testing.AllocsPerRun(1000, func() {
		r.RunOne(vp, srv, f, true, 0)
	})
	if avg > trialAllocs+trialAllocSlack {
		t.Fatalf("trial with fleet machinery linked allocates %.1f/op, budget %d", avg, trialAllocs)
	}
}

package experiment

import (
	"reflect"
	"testing"
)

// TestArenaReuseDeterminism: building every trial of a worker in one
// reused arena is invisible to results. Consecutive jobs alternate
// (vantage point, server) pairs, so each reuse switches topology, hop
// count, device population and both seeds. A fresh arena per trial,
// one arena reused serially, and RunParallel's per-worker arenas must
// give bit-identical tallies, obs snapshots, and retained failure
// traces with their causal bundles.
func TestArenaReuseDeterminism(t *testing.T) {
	vps := VantagePoints()[:3]
	servers := Servers(3, DefaultCalibration(), 42)
	specs := table1Strategies()
	var jobs []trialJob
	for si, spec := range specs {
		factory := spec.compile()
		for trial := 0; trial < 2; trial++ {
			for k := 0; k < len(vps)*len(servers); k++ {
				vp, srv := vps[k%len(vps)], servers[(k+k/len(vps))%len(servers)]
				jobs = append(jobs, trialJob{vp, srv, factory, k%2 == trial%2, trial, si, spec.name, ""})
			}
		}
	}
	newRunner := func() *Runner {
		r := NewRunner(42)
		r.Obs = NewObsSink()
		r.Causal = true
		return r
	}
	serial := func(arena func() *trialArena) ([]Tally, *ObsSink) {
		r := newRunner()
		tallies := make([]Tally, len(specs))
		for i := range jobs {
			tallies[jobs[i].sink].Add(r.runOne(&jobs[i], r.Obs, arena()))
		}
		r.Obs.Finish()
		return tallies, r.Obs
	}

	freshT, freshObs := serial(func() *trialArena { return new(trialArena) })
	shared := new(trialArena)
	reusedT, reusedObs := serial(func() *trialArena { return shared })
	r := newRunner()
	parT := r.RunParallel(jobs, len(specs), 3)

	if len(freshObs.Failures()) == 0 {
		t.Fatal("no failing trial retained: the trace comparison would be vacuous")
	}
	for _, arm := range []struct {
		name    string
		tallies []Tally
		sink    *ObsSink
	}{{"reused serial", reusedT, reusedObs}, {"parallel", parT, r.Obs}} {
		if !reflect.DeepEqual(freshT, arm.tallies) {
			t.Errorf("%s tallies differ from fresh arenas:\nfresh: %+v\n%s: %+v", arm.name, freshT, arm.name, arm.tallies)
		}
		if !reflect.DeepEqual(freshObs.Snapshot(), arm.sink.Snapshot()) {
			t.Errorf("%s obs snapshot differs from fresh arenas", arm.name)
		}
		if !reflect.DeepEqual(freshObs.Failures(), arm.sink.Failures()) {
			t.Errorf("%s retained failure traces differ from fresh arenas", arm.name)
		}
	}
}

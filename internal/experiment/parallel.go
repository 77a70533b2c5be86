package experiment

import (
	"runtime"
	"sync"

	"intango/internal/core"
)

// trialJob is one independent simulation to run.
type trialJob struct {
	vp        VantagePoint
	srv       Server
	factory   core.Factory
	sensitive bool
	trial     int
	// sink receives the outcome; index identifies the tally.
	sink int
	// label names the strategy for observability retention keys.
	label string
}

// RunParallel executes a batch of trials across all CPUs (bounded by
// r.Workers when set). Each trial is an isolated simulation with a
// seed derived only from its own parameters, and every worker
// accumulates into private tally and observability shards that are
// merged only after the barrier — no lock is taken anywhere on the
// trial hot path, and because the merges are order-independent the
// results are bit-identical to serial execution regardless of
// scheduling.
func (r *Runner) RunParallel(jobs []trialJob, tallies []*Tally) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	var prog *progressTracker
	if r.Progress != nil {
		prog = newProgressTracker(jobs, *r.Progress)
		r.progressAddr.Store(prog.Addr())
	}
	var wg sync.WaitGroup
	ch := make(chan trialJob, workers)
	tallyShards := make([][]Tally, workers)
	obsShards := make([]*ObsSink, workers)
	for w := 0; w < workers; w++ {
		tallyShards[w] = make([]Tally, len(tallies))
		if r.Obs != nil {
			obsShards[w] = r.Obs.shard()
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Under PerWorkerPool each worker recycles through its own
			// private pool; otherwise all workers share one sync.Pool.
			pool := r.newWorkerPool()
			arena := new(trialArena)
			for job := range ch {
				out := r.runOne(job.vp, job.srv, job.factory, job.sensitive, job.trial, obsShards[w], job.label, pool, arena)
				tallyShards[w][job.sink].Add(out)
				prog.note(job.label, out)
			}
		}(w)
	}
	for _, job := range jobs {
		ch <- job
	}
	close(ch)
	wg.Wait()
	prog.finish()
	if prog != nil {
		r.progressSeries = prog.Series()
		r.progressFinal = prog.snapshot()
		r.progressRan = true
	}
	for w := range tallyShards {
		for i, t := range tallyShards[w] {
			tallies[i].Merge(t)
		}
		if r.Obs != nil {
			r.Obs.merge(obsShards[w])
		}
	}
	if r.Obs != nil {
		r.Obs.Finish()
	}
}

// RunTable1Parallel is RunTable1 with trials fanned out across CPUs.
// Results are identical to the serial runner for the same seed. The job
// enumeration lives in Table1Cube, shared with the fleet shard
// coordinator, so a sharded campaign partitions exactly this job list.
func RunTable1Parallel(r *Runner, scale Scale) []Table1Row {
	return r.runParallelCube(Table1Cube(r, scale))
}

// RunTable4Parallel fans the Table 4 strategy rows across CPUs.
func RunTable4Parallel(r *Runner, vps []VantagePoint, servers []Server, trials int) []Table4Row {
	specs := table4Strategies()
	perVP := make([][]Tally, len(specs))
	var jobs []trialJob
	var tallies []*Tally
	for si, spec := range specs {
		perVP[si] = make([]Tally, len(vps))
		factory := spec.compile()
		for vi, vp := range vps {
			sink := len(tallies)
			tallies = append(tallies, &perVP[si][vi])
			for _, srv := range servers {
				for trial := 0; trial < trials; trial++ {
					jobs = append(jobs, trialJob{vp, srv, factory, true, trial, sink, spec.name})
				}
			}
		}
	}
	r.RunParallel(jobs, tallies)
	rows := make([]Table4Row, len(specs))
	for si, spec := range specs {
		rows[si] = summarizeVPs(spec.label, perVP[si])
	}
	return rows
}

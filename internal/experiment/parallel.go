package experiment

import (
	"runtime"
	"sync"

	"intango/internal/core"
)

// trialJob is the one description of a trial. Every campaign that
// produces tallies — Tables 1, 4 and 5, the ablation, the censor
// matrix — is a list of these run by RunParallel, and RunOne runs a
// single one.
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
	// censor is the reference every GFW device slot of the trial's
	// topology is built from: a registry name or raw censor-spec text,
	// or "" for the calibrated GFW population.
	censor string
}

// worker is one lane of the executor: the arena it builds every trial
// in, and the tally and observability shards its outcomes fold into.
type worker struct {
	r       *Runner
	arena   trialArena
	tallies []Tally
	sink    *ObsSink
}

// run executes one job and adds its outcome to the worker's tallies.
func (w *worker) run(job *trialJob) Outcome {
	out := w.r.runOne(job, w.sink, &w.arena)
	w.tallies[job.sink].Add(out)
	return out
}

// RunParallel is the campaign executor: it runs jobs on up to workers
// workers (<= 0 means GOMAXPROCS) and returns numTallies tallies, tally
// i counting every job whose sink is i. Each trial is an isolated
// simulation with a seed derived only from its own parameters, and
// every worker accumulates into private tally and observability shards
// that are merged only after the barrier — no lock is taken anywhere
// on the trial hot path, and because the merges are order-independent
// the results are bit-identical for any worker count and scheduling.
// One worker runs on the caller's goroutine: that is the serial path.
func (r *Runner) RunParallel(jobs []trialJob, numTallies, workers int) []Tally {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(jobs)), 1)
	var prog *progressTracker
	if r.Progress != nil {
		prog = newProgressTracker(jobs, *r.Progress)
		r.progressAddr.Store(prog.Addr())
	}
	ws := make([]worker, workers)
	for i := range ws {
		ws[i] = worker{r: r, tallies: make([]Tally, numTallies)}
		if r.Obs != nil {
			ws[i].sink = r.Obs.shard()
		}
	}
	if workers == 1 {
		for i := range jobs {
			prog.note(jobs[i].label, ws[0].run(&jobs[i]))
		}
	} else {
		var wg sync.WaitGroup
		ch := make(chan *trialJob, workers)
		for i := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for job := range ch {
					prog.note(job.label, w.run(job))
				}
			}(&ws[i])
		}
		for i := range jobs {
			ch <- &jobs[i]
		}
		close(ch)
		wg.Wait()
	}
	prog.finish()
	if prog != nil {
		r.progressSeries = prog.Series()
		r.progressFinal = prog.snapshot()
		r.progressRan = true
	}
	tallies := make([]Tally, numTallies)
	for _, w := range ws {
		for i, t := range w.tallies {
			tallies[i].Merge(t)
		}
		if r.Obs != nil {
			r.Obs.merge(w.sink)
		}
	}
	if r.Obs != nil {
		r.Obs.Finish()
	}
	return tallies
}

// RunTable1Parallel is RunTable1 with trials fanned out across
// r.Workers workers. Results are identical to the serial runner for the
// same seed. The job enumeration lives in Table1Cube, shared with the
// fleet shard coordinator, so a sharded campaign partitions exactly
// this job list.
func RunTable1Parallel(r *Runner, scale Scale) []Table1Row {
	c := Table1Cube(r, scale)
	return c.Fold(r.RunParallel(c.jobs, c.numTallies, r.Workers))
}

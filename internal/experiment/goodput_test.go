package experiment

import (
	"testing"

	"intango/internal/core"
)

// TestCongestionDisabledZeroAlloc pins the unconstrained trial at the
// hot-path allocation budget: the congestion machinery grown
// for rated links — per-connection cwnd/ssthresh tracking, RTT-sampled
// retransmission timers, the persist timer, and the per-link shaper
// hook — must cost a campaign over unshaped links nothing. Shaper
// state is allocated lazily only when a link sets `bw=`, and the
// stack's new bookkeeping lives in fields that already existed per
// connection, so the per-trial allocation count must not move.
func TestCongestionDisabledZeroAlloc(t *testing.T) {
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
	// The hot-path budget (see trialAllocs for how it was measured).
	avg := testing.AllocsPerRun(1000, func() {
		r.RunOne(vp, srv, f, true, 0)
	})
	if avg > trialAllocs+trialAllocSlack {
		t.Fatalf("unconstrained trial allocates %.1f/op with congestion machinery present, budget %d", avg, trialAllocs)
	}
}

// TestGoodputReorderCostlier is the congestion demo's acceptance
// property: on the bw=1mbit,queue=16 access link every
// duplicate/reorder-heavy strategy must deliver measurably lower
// goodput than every insertion-only strategy — the cost the paper's
// success rates never surfaced.
func TestGoodputReorderCostlier(t *testing.T) {
	if testing.Short() {
		t.Skip("full goodput campaign")
	}
	rows := RunGoodput(NewRunner(42), QuickScale())
	var minInject, maxReorder int64
	minInject = 1 << 62
	for _, row := range rows {
		if row.ConstrainedBps <= 0 {
			t.Errorf("%s: no goodput on the constrained link", row.Strategy)
		}
		switch row.Class {
		case "reorder":
			if row.ConstrainedBps > maxReorder {
				maxReorder = row.ConstrainedBps
			}
		case "inject":
			if row.ConstrainedBps < minInject {
				minInject = row.ConstrainedBps
			}
		}
	}
	// "Measurably lower": the best reorder strategy still loses at
	// least a third of the goodput the worst inject strategy keeps.
	if maxReorder*3 > minInject*2 {
		t.Errorf("reorder strategies not measurably costlier: best reorder %d bps vs worst inject %d bps",
			maxReorder, minInject)
	}
}

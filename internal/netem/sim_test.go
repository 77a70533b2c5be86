package netem

import (
	"math/rand"
	"testing"
	"time"

	"intango/internal/packet"
)

// refEvent is the reference model's record of one scheduled event.
type refEvent struct {
	at  time.Duration
	seq int
	id  int
}

// queueOracle drives a Simulator with a random schedule and checks,
// event by event, that it pops exactly what a reference ordered by
// (time, scheduling order) would pop next.
type queueOracle struct {
	t       *testing.T
	sim     *Simulator
	rng     *rand.Rand
	pending []refEvent // reference queue, unordered
	seq     int
	budget  int // events still allowed to be scheduled
	popped  int
	ran     []refEvent // events in the order they ran
}

// delays mixes negative, zero and repeated small delays so many events
// tie on the same instant.
var oracleDelays = []time.Duration{-time.Millisecond, 0, 0, 0, 1, 1, time.Millisecond, time.Millisecond, 3 * time.Millisecond}

func (o *queueOracle) schedule() {
	if o.budget == 0 {
		return
	}
	o.budget--
	d := oracleDelays[o.rng.Intn(len(oracleDelays))]
	at := o.sim.Now() + d
	if d < 0 {
		at = o.sim.Now()
	}
	o.seq++
	ev := refEvent{at: at, seq: o.seq, id: o.seq}
	o.pending = append(o.pending, ev)
	if o.rng.Intn(2) == 0 {
		o.sim.At(d, func() { o.fired(ev.id) })
	} else {
		o.sim.AtPacket(d, o, nil, ev.id, ToServer)
	}
}

// HandlePacket implements PacketHandler; from carries the event id.
func (o *queueOracle) HandlePacket(_ *packet.Packet, from int, _ Direction) { o.fired(from) }

func (o *queueOracle) fired(id int) {
	o.t.Helper()
	best := 0
	for i, e := range o.pending {
		b := o.pending[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	want := o.pending[best]
	if id != want.id || o.sim.Now() != want.at {
		o.t.Fatalf("pop %d: got event %d at %v, want event %d at %v", o.popped, id, o.sim.Now(), want.id, want.at)
	}
	o.pending = append(o.pending[:best], o.pending[best+1:]...)
	o.ran = append(o.ran, want)
	o.popped++
	// Handlers schedule follow-ups, as router hops and timers do.
	for n := o.rng.Intn(3); n > 0; n-- {
		o.schedule()
	}
}

func TestSimulatorQueueOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		runQueueOracle(t, seed, NewSimulator(seed))
	}
}

// runQueueOracle drives sim through the random schedule seeded by seed
// to completion, checking every pop against the reference order, and
// returns the events in the order they ran.
func runQueueOracle(t *testing.T, seed int64, sim *Simulator) []refEvent {
	t.Helper()
	o := &queueOracle{t: t, sim: sim, rng: rand.New(rand.NewSource(seed)), budget: 400}
	for n := o.rng.Intn(50); n > 0; n-- {
		o.schedule()
	}
	for o.sim.Pending() > 0 || o.budget > 0 {
		switch o.rng.Intn(3) {
		case 0:
			d := time.Duration(o.rng.Intn(3)) * time.Millisecond
			deadline := o.sim.Now() + d
			o.sim.RunFor(d)
			if o.sim.Now() != deadline {
				t.Fatalf("seed %d: RunFor left Now = %v, want %v", seed, o.sim.Now(), deadline)
			}
			for _, e := range o.pending {
				if e.at <= deadline {
					t.Fatalf("seed %d: event %d at %v still pending after RunFor to %v", seed, e.id, e.at, deadline)
				}
			}
		case 1:
			o.sim.Run(1 + o.rng.Intn(5))
		default:
			o.schedule()
		}
		if o.sim.Pending() != len(o.pending) {
			t.Fatalf("seed %d: Pending = %d, reference holds %d", seed, o.sim.Pending(), len(o.pending))
		}
	}
	if o.sim.Steps() != uint64(o.popped) {
		t.Fatalf("seed %d: Steps = %d, popped %d", seed, o.sim.Steps(), o.popped)
	}
	return o.ran
}

// staleHandler fails the test if a packet event scheduled before a
// Reset is delivered after it.
type staleHandler struct {
	t     *testing.T
	reset *bool
}

func (h staleHandler) HandlePacket(*packet.Packet, int, Direction) {
	if *h.reset {
		h.t.Fatal("packet event scheduled before Reset ran after it")
	}
}

// TestSimulatorResetReplaysFresh is the reuse property a campaign
// worker's trial arena rests on: a simulator reset mid-run — clock
// advanced, RNG drawn, slab and buckets grown, events still pending on
// instants the replay reuses — runs the same (time, scheduling order)
// schedule as a fresh simulator with the same seed, draws the same
// random stream, never runs an event scheduled before the reset, and
// keeps none of those events' closures or packets in its slab.
func TestSimulatorResetReplaysFresh(t *testing.T) {
	sim := NewSimulator(99)
	rng := sim.Rand()
	stale := &packet.Packet{}
	for seed := int64(1); seed <= 100; seed++ {
		reset := false
		for i := 0; i < 40; i++ {
			sim.At(time.Duration(i%7)*time.Millisecond, func() {
				if reset {
					t.Fatal("closure scheduled before Reset ran after it")
				}
			})
			sim.AtPacket(time.Duration(i%5)*time.Millisecond, staleHandler{t, &reset}, stale, i, ToClient)
		}
		sim.Run(int(seed % 30))
		sim.Rand().Int63()
		sim.Reset(seed)
		reset = true
		if sim.Now() != 0 || sim.Steps() != 0 || sim.Pending() != 0 {
			t.Fatalf("seed %d: after Reset now=%v steps=%d pending=%d", seed, sim.Now(), sim.Steps(), sim.Pending())
		}
		for i, e := range sim.slab[:cap(sim.slab)] {
			if e.fn != nil || e.h != nil || e.pkt != nil {
				t.Fatalf("seed %d: slot %d retains fn=%v h=%v pkt=%v after Reset", seed, i, e.fn != nil, e.h, e.pkt)
			}
		}
		fresh := NewSimulator(seed)
		want := runQueueOracle(t, seed, fresh)
		got := runQueueOracle(t, seed, sim)
		if len(got) != len(want) {
			t.Fatalf("seed %d: reset simulator ran %d events, fresh ran %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d ran as %+v after Reset, %+v fresh", seed, i, got[i], want[i])
			}
		}
		if sim.Rand() != rng {
			t.Fatalf("seed %d: Reset replaced the *rand.Rand", seed)
		}
		for i := 0; i < 700; i++ {
			if g, w := sim.Rand().Uint64(), fresh.Rand().Uint64(); g != w {
				t.Fatalf("seed %d draw %d: reset RNG %#x, fresh %#x", seed, i, g, w)
			}
		}
	}
}

// nopHandler is a PacketHandler that does nothing.
type nopHandler struct{}

func (nopHandler) HandlePacket(*packet.Packet, int, Direction) {}

func TestSimulatorSteadyStateAllocatesNothing(t *testing.T) {
	s := NewSimulator(1)
	fn := func() {}
	var h nopHandler
	pkt := &packet.Packet{}
	// Warm the slab and bucket list to their high-water marks.
	for i := 0; i < 64; i++ {
		s.At(time.Duration(i%8), fn)
		s.AtPacket(time.Duration(i%5), h, pkt, i, ToClient)
	}
	s.Run(1 << 10)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			s.At(time.Duration(i%4), fn)
			s.AtPacket(time.Duration(i%3), h, pkt, i, ToServer)
		}
		s.Run(1 << 10)
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f/op, want 0", allocs)
	}
}

func TestSimulatorPoppedSlotsRetainNothing(t *testing.T) {
	s := NewSimulator(1)
	pkt := &packet.Packet{}
	var h nopHandler
	check := func(when string) {
		for i := s.free; i != none; i = s.slab[i].next {
			if e := s.slab[i]; e.fn != nil || e.h != nil || e.pkt != nil {
				t.Fatalf("%s: free slot %d retains fn=%v h=%v pkt=%v", when, i, e.fn != nil, e.h, e.pkt)
			}
		}
	}
	for i := 0; i < 32; i++ {
		s.At(time.Duration(i%4), func() {})
		s.AtPacket(time.Duration(i%4), h, pkt, i, ToServer)
	}
	s.Run(20)
	check("mid-run")
	s.Run(1 << 10)
	check("drained")
	free := 0
	for i := s.free; i != none; i = s.slab[i].next {
		free++
	}
	if free != len(s.slab) {
		t.Fatalf("drained queue: %d of %d slots on the free list", free, len(s.slab))
	}
}

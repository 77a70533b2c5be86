// Package netem is a deterministic discrete-event network simulator. It
// models the measurement environment of the paper: a client and a server
// joined by a chain of router hops, with middleboxes and the GFW's
// on-path wiretap attached at arbitrary hops, per-link latency and loss,
// TTL handling with ICMP Time-Exceeded generation, and full packet
// tracing for the time-sequence diagrams of Figs. 3 and 4.
package netem

import (
	"math/rand"
	"time"

	"intango/internal/packet"
)

// PacketHandler is the monomorphic alternative to a scheduled closure:
// packet deliveries carry (handler, pkt, from, dir) in the event itself
// instead of allocating a capturing func. Path implements it; so can
// any model component with a per-packet timer.
type PacketHandler interface {
	HandlePacket(pkt *packet.Packet, from int, dir Direction)
}

// Simulator owns virtual time and the event queue. All model code runs
// single-threaded inside Run, so no locking is needed anywhere in the
// simulation.
//
// The queue is timestamp-bucketed: one FIFO per distinct pending
// timestamp. Events scheduled for the same instant run in the order
// they were scheduled, and instants run in time order — the (time,
// scheduling order) total order a priority queue with a sequence
// tie-break would give, without comparing events. Campaign trials keep
// only a handful of distinct instants pending (injected RST volleys and
// every router hop of a burst share theirs), so a push is a short scan
// and a pop is O(1).
type Simulator struct {
	now     time.Duration
	steps   uint64
	pending int
	// buckets is sorted by descending time, so the earliest instant —
	// the next to run — is last and popping an exhausted bucket is a
	// truncation.
	buckets []bucket
	// slab stores every event; bucket FIFOs and the free list are
	// linked through event.next, so steady state allocates nothing.
	slab []event
	free int32
	rng  *rand.Rand
}

// none terminates the FIFO and free-list links.
const none = -1

// bucket is the FIFO of events pending at one instant.
type bucket struct {
	at         time.Duration
	head, tail int32
}

// event is one scheduled callback in the slab. A popped slot is zeroed
// before it joins the free list, so the slab retains neither the
// executed closure nor the delivered packet.
type event struct {
	fn func()
	// Packet-event fields, used when fn is nil.
	h    PacketHandler
	pkt  *packet.Packet
	from int32
	next int32
	dir  Direction
}

// NewSimulator returns a simulator seeded for deterministic runs.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{free: none, rng: NewRand(seed)}
}

// Reset returns s to the state NewSimulator(seed) would build — time,
// step and pending counts at zero, queue empty, RNG reseeded in place
// (the *rand.Rand pointer survives) — while keeping the event slab's
// and bucket list's capacity. Events scheduled before Reset never run,
// and every slot is cleared so the slab retains none of their closures
// or packets.
func (s *Simulator) Reset(seed int64) {
	clear(s.slab)
	s.slab = s.slab[:0]
	s.buckets = s.buckets[:0]
	s.free = none
	s.now, s.steps, s.pending = 0, 0, 0
	s.rng.Seed(seed)
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic PRNG.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// At schedules fn to run after delay (relative to now). A zero or
// negative delay runs on the next step, still in deterministic order.
func (s *Simulator) At(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.push(s.now+delay, event{fn: fn})
}

// AtPacket schedules h.HandlePacket(pkt, from, dir) after delay without
// allocating: the arguments ride in the event value itself. It shares
// the queue order with At, so closure and packet events interleave
// exactly as their scheduling order dictates.
func (s *Simulator) AtPacket(delay time.Duration, h PacketHandler, pkt *packet.Packet, from int, dir Direction) {
	if delay < 0 {
		delay = 0
	}
	s.push(s.now+delay, event{h: h, pkt: pkt, from: int32(from), dir: dir})
}

// push appends e to the FIFO of instant at, creating the bucket if
// none is pending. The scan starts at the earliest bucket: new events
// mostly land at or near the front of the schedule.
func (s *Simulator) push(at time.Duration, e event) {
	i := s.free
	e.next = none
	if i == none {
		i = int32(len(s.slab))
		s.slab = append(s.slab, e)
	} else {
		s.free = s.slab[i].next
		s.slab[i] = e
	}
	s.pending++
	b := s.buckets
	k := len(b)
	for k > 0 && b[k-1].at < at {
		k--
	}
	if k > 0 && b[k-1].at == at {
		s.slab[b[k-1].tail].next = i
		b[k-1].tail = i
		return
	}
	b = append(b, bucket{})
	copy(b[k+1:], b[k:])
	b[k] = bucket{at: at, head: i, tail: i}
	s.buckets = b
}

// Step executes the next event. It reports false when the queue is
// empty.
func (s *Simulator) Step() bool {
	n := len(s.buckets)
	if n == 0 {
		return false
	}
	b := &s.buckets[n-1]
	i := b.head
	e := s.slab[i]
	s.now = b.at
	if i == b.tail {
		s.buckets = s.buckets[:n-1]
	} else {
		b.head = e.next
	}
	s.slab[i] = event{next: s.free}
	s.free = i
	s.pending--
	s.steps++
	if e.fn != nil {
		e.fn()
	} else {
		e.h.HandlePacket(e.pkt, int(e.from), e.dir)
	}
	return true
}

// Steps returns the number of events executed so far — the
// observability layer's "netem events executed" figure.
func (s *Simulator) Steps() uint64 { return s.steps }

// Run executes events until the queue drains or the budget of events is
// exhausted (a guard against accidental livelock in model code). It
// returns the number of events executed.
func (s *Simulator) Run(budget int) int {
	n := 0
	for n < budget && s.Step() {
		n++
	}
	return n
}

// RunFor executes events with timestamps up to now+d, then advances the
// clock to exactly now+d (even if the queue still holds later events).
func (s *Simulator) RunFor(d time.Duration) {
	deadline := s.now + d
	for n := len(s.buckets); n > 0 && s.buckets[n-1].at <= deadline; n = len(s.buckets) {
		s.Step()
	}
	s.now = deadline
}

// NextAt returns the instant of the earliest pending event; ok is false
// when the queue is empty.
func (s *Simulator) NextAt() (at time.Duration, ok bool) {
	n := len(s.buckets)
	if n == 0 {
		return 0, false
	}
	return s.buckets[n-1].at, true
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.pending }

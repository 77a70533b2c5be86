package netem

import (
	"math"
	"sync"
	"time"

	"intango/internal/obs"
)

// Clock drives a Simulator from the wall clock, for the live processes
// that embed one (the intangd proxy's world, a uis stack). Virtual time
// is the wall time elapsed since an anchor, multiplied by a scale.
//
// The clock is event-driven. Its driver (Run) sleeps on one timer
// until the earliest pending event is due, so an idle simulator costs
// no wake-ups at all. Outside input — a packet read from a device, a
// dial, a write — enters in three steps under the owner's lock: Sync
// runs the simulator up to wall-now, so the input lands at its true
// virtual instant; the input is applied; Kick wakes the driver, but
// only if the input scheduled an event earlier than the one the driver
// sleeps until.
//
// The owner's lock guards the simulator and the clock's anchor. Sync,
// Kick and Advance must be called with it held; Run takes it itself.
type Clock struct {
	sim   *Simulator
	lock  sync.Locker
	scale float64
	wakes *obs.Counter
	kick  chan struct{}

	// Guarded by lock: wall time anchorWall maps to virtual time
	// anchorVirt, and armed is the instant the driver sleeps until
	// (forever when the queue is empty).
	anchorWall time.Time
	anchorVirt time.Duration
	armed      time.Duration
}

// forever is the armed instant of a driver with nothing to wait for.
const forever = time.Duration(math.MaxInt64)

// NewClock anchors sim's current instant at wall-now. lock is the lock
// the owner holds around every use of sim; scale (> 0) multiplies wall
// time into virtual time; wakes, if non-nil, counts the driver's
// wake-ups.
func NewClock(sim *Simulator, lock sync.Locker, scale float64, wakes *obs.Counter) *Clock {
	return &Clock{
		sim: sim, lock: lock, scale: scale, wakes: wakes,
		kick:       make(chan struct{}, 1),
		anchorWall: time.Now(),
		anchorVirt: sim.Now(),
		armed:      forever,
	}
}

// virtAt maps a wall instant to virtual time.
func (c *Clock) virtAt(w time.Time) time.Duration {
	el := w.Sub(c.anchorWall)
	if c.scale != 1 {
		el = time.Duration(float64(el) * c.scale)
	}
	return c.anchorVirt + el
}

// Sync runs the simulator up to the virtual instant of wall-now and
// reports whether any event ran.
func (c *Clock) Sync() bool {
	steps := c.sim.Steps()
	if d := c.virtAt(time.Now()) - c.sim.Now(); d > 0 {
		c.sim.RunFor(d)
	}
	return c.sim.Steps() != steps
}

// Kick wakes the driver when the simulator holds an event earlier than
// the instant the driver sleeps until. It never blocks.
func (c *Clock) Kick() {
	if at, ok := c.sim.NextAt(); ok && at < c.armed {
		c.armed = at
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// Advance runs the simulator d past wall-now without waiting and moves
// the anchor by d, so virtual time keeps flowing from the new instant
// instead of standing still until the wall clock catches up.
func (c *Clock) Advance(d time.Duration) {
	c.Sync()
	c.sim.RunFor(d)
	c.anchorVirt += d
	c.Kick()
}

// Run drives the simulator until stop closes: it runs every due event,
// sleeps until the next one is due or a Kick arrives, and repeats.
// after, when non-nil, runs without the lock after each pass that ran
// events (uis wakes its blocked readers there).
func (c *Clock) Run(stop <-chan struct{}, after func()) {
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		c.lock.Lock()
		ran := c.Sync()
		next, ok := c.sim.NextAt()
		var wait time.Duration
		c.armed = forever
		if ok {
			c.armed = next
			wait = c.wallUntil(next)
		}
		c.lock.Unlock()
		if ran && after != nil {
			after()
		}
		// Stop and drain before Reset: the pre-1.23 timer channel keeps
		// a stale fire buffered.
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		if ok {
			t.Reset(wait)
		}
		select {
		case <-stop:
			return
		case <-c.kick:
		case <-t.C:
		}
		c.wakes.Inc()
	}
}

// wallUntil returns the wall time until virtual instant at is due,
// rounded up so the driver never wakes before it.
func (c *Clock) wallUntil(at time.Duration) time.Duration {
	d := at - c.virtAt(time.Now())
	if d <= 0 {
		return 0
	}
	if c.scale != 1 {
		d = time.Duration(math.Ceil(float64(d) / c.scale))
	}
	return d
}

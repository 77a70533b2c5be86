package netem

import (
	"sync"
	"testing"
	"time"

	"intango/internal/obs"
)

// clockRig is a simulator with its lock and clock, and the driver
// running until stop closes.
type clockRig struct {
	mu    sync.Mutex
	sim   *Simulator
	clock *Clock
	wakes obs.Counter
	stop  chan struct{}
	done  chan struct{}
}

func newClockRig(t *testing.T, scale float64) *clockRig {
	r := &clockRig{sim: NewSimulator(1), stop: make(chan struct{}), done: make(chan struct{})}
	r.clock = NewClock(r.sim, &r.mu, scale, &r.wakes)
	go func() {
		defer close(r.done)
		r.clock.Run(r.stop, nil)
	}()
	t.Cleanup(func() {
		close(r.stop)
		<-r.done
	})
	return r
}

// schedule adds an event d from wall-now the way outside input does:
// sync, schedule, kick. The returned channel closes when it runs.
func (r *clockRig) schedule(d time.Duration) chan struct{} {
	ran := make(chan struct{})
	r.mu.Lock()
	r.clock.Sync()
	r.sim.At(d, func() { close(ran) })
	r.clock.Kick()
	r.mu.Unlock()
	return ran
}

func (r *clockRig) now() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock.Sync()
	return r.sim.Now()
}

// TestClockIdleNeverWakes: with nothing scheduled the driver sleeps
// through any wait; one scheduled event costs one wake-up.
func TestClockIdleNeverWakes(t *testing.T) {
	r := newClockRig(t, 1)
	time.Sleep(100 * time.Millisecond)
	if n := r.wakes.Value(); n != 0 {
		t.Fatalf("idle driver woke %d times", n)
	}
	ran := r.schedule(20 * time.Millisecond)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("scheduled event never ran")
	}
	time.Sleep(50 * time.Millisecond)
	// The kick that re-armed the timer, then the timer itself.
	if n := r.wakes.Value(); n < 1 || n > 3 {
		t.Errorf("one event cost %d wake-ups", n)
	}
}

// TestClockRunsEventsAtTheirInstant: an event fires no earlier than its
// virtual instant maps to on the wall clock, at any scale.
func TestClockRunsEventsAtTheirInstant(t *testing.T) {
	for _, scale := range []float64{1, 10} {
		r := newClockRig(t, scale)
		start := time.Now()
		ran := r.schedule(time.Duration(float64(40*time.Millisecond) * scale))
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("scale %v: event never ran", scale)
		}
		if el := time.Since(start); el < 40*time.Millisecond {
			t.Errorf("scale %v: event ran after %v of wall time, want >= 40ms", scale, el)
		}
	}
}

// TestClockAdvanceKeepsFlowing: after Advance jumps the virtual clock,
// virtual time goes on with the wall clock from the new instant — and
// events scheduled after the jump still run on time.
func TestClockAdvanceKeepsFlowing(t *testing.T) {
	r := newClockRig(t, 1)
	r.mu.Lock()
	r.clock.Advance(2 * time.Minute)
	jumped := r.sim.Now()
	r.mu.Unlock()
	if jumped < 2*time.Minute {
		t.Fatalf("Advance(2m) left the clock at %v", jumped)
	}
	time.Sleep(30 * time.Millisecond)
	if now := r.now(); now < jumped+30*time.Millisecond || now > jumped+time.Minute {
		t.Fatalf("30ms after the jump to %v virtual time reads %v", jumped, now)
	}
	ran := r.schedule(10 * time.Millisecond)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("event scheduled after Advance never ran")
	}
}

// TestSimulatorNextAt reports the earliest pending instant.
func TestSimulatorNextAt(t *testing.T) {
	s := NewSimulator(1)
	if _, ok := s.NextAt(); ok {
		t.Fatal("empty simulator reports a next event")
	}
	s.At(5*time.Millisecond, func() {})
	s.At(2*time.Millisecond, func() {})
	if at, ok := s.NextAt(); !ok || at != 2*time.Millisecond {
		t.Fatalf("NextAt = %v, %v; want 2ms", at, ok)
	}
	s.Step()
	if at, ok := s.NextAt(); !ok || at != 5*time.Millisecond {
		t.Fatalf("NextAt after one step = %v, %v; want 5ms", at, ok)
	}
}

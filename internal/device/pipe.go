package device

import (
	"sync"

	"intango/internal/packet"
)

// PipeEnd is one side of an in-memory packet pipe. The pipe carries
// serialized wire bytes, not shared pointers: WritePacket encodes the
// datagram, ReadPacket parses a new packet on the far side — the same
// copy semantics a real interface has, which is what makes the pipe an
// honest stand-in for one in tests and in the intangd proxy.
//
// Writes never block: each end has a receive queue, and when a
// capacity is set the queue tail-drops like a full NIC ring (Dropped
// counts the losses). That property is load-bearing — the proxy writes
// into a pipe while holding its world lock, and a blocking write there
// would deadlock against a reader waiting for that lock.
//
// A crossing allocates nothing in steady state:
//
//   - The receive queue is a ring of wire buffers. A write encodes into
//     the buffer of the slot it fills (Packet.AppendTo), and the slot
//     keeps its buffer for the next frame.
//   - Each end owns a packet pool. ReadPacket parses into a packet from
//     it, and PacketPool hands it to the layers above, so what they
//     craft comes from it too.
//
// Ownership rules:
//
//   - WritePacket takes ownership of the packet and releases it once
//     its bytes are encoded, whether the write succeeds or not. The
//     writer must not touch it afterwards, and must not write a packet
//     some other layer will still release — a netem path releases what
//     it delivers, so a caller forwarding a delivered packet writes a
//     pooled clone of it instead.
//   - ReadPacket's packet belongs to the caller, who releases it when
//     done (a stack after Deliver returns). A missed release only costs
//     a garbage-collected packet.
type PipeEnd struct {
	name string
	peer *PipeEnd
	pool *packet.Pool

	mu sync.Mutex
	rd sync.Cond
	// ring holds the queued frames at ring[head], ring[head+1], ...
	// (mod len), n of them; every slot keeps its buffer when popped.
	ring    [][]byte
	head, n int
	closed  bool
	peerOff bool
	dropped uint64
	cap     int
}

// NewPipe returns the two connected ends of a packet pipe. capacity
// bounds each direction's receive queue (0 means unbounded); overflow
// tail-drops.
func NewPipe(capacity int) (*PipeEnd, *PipeEnd) {
	a := &PipeEnd{name: "a", cap: capacity, pool: packet.NewPool()}
	b := &PipeEnd{name: "b", cap: capacity, pool: packet.NewPool()}
	a.rd.L = &a.mu
	b.rd.L = &b.mu
	a.peer, b.peer = b, a
	return a, b
}

// PacketPool implements Pooled: the pool this end parses into.
func (e *PipeEnd) PacketPool() *packet.Pool { return e.pool }

// Dropped returns how many inbound datagrams this end's full queue
// discarded.
func (e *PipeEnd) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// WritePacket encodes pkt into the peer's receive queue and releases
// it (see PipeEnd for the ownership rules).
func (e *PipeEnd) WritePacket(pkt *packet.Packet) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	err := ErrClosed
	if !closed {
		err = e.peer.push(pkt)
	}
	pkt.Release()
	return err
}

// push encodes pkt into the next free slot of e's receive queue.
func (e *PipeEnd) push(pkt *packet.Packet) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.cap > 0 && e.n >= e.cap {
		e.dropped++
		e.mu.Unlock()
		return nil
	}
	if e.n == len(e.ring) {
		e.grow()
	}
	i := (e.head + e.n) % len(e.ring)
	e.ring[i] = pkt.AppendTo(e.ring[i][:0], packet.SerializeOptions{})
	e.n++
	e.mu.Unlock()
	e.rd.Signal()
	return nil
}

// grow doubles the full ring, moving the queued frames (and so every
// buffer) to the front of the new one.
func (e *PipeEnd) grow() {
	size := max(8, 2*len(e.ring))
	if e.cap > 0 {
		size = min(size, e.cap)
	}
	ring := make([][]byte, size)
	for k := 0; k < e.n; k++ {
		ring[k] = e.ring[(e.head+k)%len(e.ring)]
	}
	e.ring, e.head = ring, 0
}

// ReadPacket parses and returns the next queued datagram, blocking
// until one arrives or the pipe is closed (either end). Buffered
// datagrams written before a close remain readable — the half-close
// drain a real socket gives.
func (e *PipeEnd) ReadPacket() (*packet.Packet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.n == 0 && !e.closed && !e.peerOff {
		e.rd.Wait()
	}
	if e.n == 0 {
		return nil, ErrClosed
	}
	frame := e.ring[e.head]
	e.head = (e.head + 1) % len(e.ring)
	e.n--
	// Parse copies out of the slot before the lock lets a writer
	// reuse it.
	return e.pool.Parse(frame)
}

// Close closes this end: its reads and writes fail, and the peer —
// after draining what was already queued — unblocks with ErrClosed.
// Each end's state lives under its own lock and Close touches them
// one at a time, so two concurrent closes cannot deadlock.
func (e *PipeEnd) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.rd.Broadcast()
	p := e.peer
	p.mu.Lock()
	p.peerOff = true
	p.mu.Unlock()
	p.rd.Broadcast()
	return nil
}

package main

import (
	"sync"
	"time"

	"intango/internal/core"
	"intango/internal/device"
	"intango/internal/packet"
)

// strategyStats accumulates what the wrapped strategies saw. The
// replay that uses it is serial, so it needs no lock.
type strategyStats struct {
	calls, emissions int
	busy             time.Duration
}

// countingStrategy delegates to the strategy it wraps and only counts:
// Outbound calls, the time they took and the emissions they returned.
type countingStrategy struct {
	inner core.Strategy
	st    *strategyStats
}

func (s countingStrategy) Name() string { return s.inner.Name() }

func (s countingStrategy) Outbound(f *core.Flow, pkt *packet.Packet) []core.Emission {
	t0 := time.Now()
	em := s.inner.Outbound(f, pkt)
	s.st.busy += time.Since(t0)
	s.st.calls++
	s.st.emissions += len(em)
	return em
}

// wrapFactory wraps every strategy f builds; onBuild runs on each call,
// which the engine makes when a flow's first packet (the SYN) arrives.
func wrapFactory(f core.Factory, st *strategyStats, onBuild func()) core.Factory {
	return func() core.Strategy {
		onBuild()
		inner := f()
		if inner == nil {
			return nil
		}
		return countingStrategy{inner: inner, st: st}
	}
}

// maxCapture bounds how many wire images per direction the device
// wrapper keeps for the parse/serialize replay.
const maxCapture = 512

// countingDevice sits between a uis.Stack and the proxy's client
// device. It counts and times every crossing, keeps a bounded sample of
// wire images, and forwards the optional device capabilities — the
// packet pool and lineage stamping — so the stack above behaves exactly
// as it would on the bare device.
type countingDevice struct {
	inner device.Device

	mu       sync.Mutex
	out, in  int
	writes   []time.Duration
	readWait time.Duration
	wire     [][]byte
}

func (d *countingDevice) WritePacket(pkt *packet.Packet) error {
	var img []byte
	d.mu.Lock()
	capture := d.out < maxCapture
	d.mu.Unlock()
	if capture {
		// Ownership passes to the device on write; take the image first.
		img = pkt.Serialize(packet.SerializeOptions{})
	}
	t0 := time.Now()
	err := d.inner.WritePacket(pkt)
	dt := time.Since(t0)
	d.mu.Lock()
	d.out++
	d.writes = append(d.writes, dt)
	if img != nil {
		d.wire = append(d.wire, img)
	}
	d.mu.Unlock()
	return err
}

func (d *countingDevice) ReadPacket() (*packet.Packet, error) {
	t0 := time.Now()
	pkt, err := d.inner.ReadPacket()
	dt := time.Since(t0)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readWait += dt
	if err == nil {
		d.in++
		if d.in <= maxCapture {
			d.wire = append(d.wire, pkt.Serialize(packet.SerializeOptions{}))
		}
	}
	return pkt, err
}

func (d *countingDevice) Close() error { return d.inner.Close() }

// PacketPool forwards the inner device's pool (device.Pooled).
func (d *countingDevice) PacketPool() *packet.Pool { return device.PoolOf(d.inner) }

// StampLineage forwards lineage stamping (device.LineageStamper).
func (d *countingDevice) StampLineage(pkt *packet.Packet) uint32 {
	return device.Stamp(d.inner, pkt)
}

// The wrapper must keep the capabilities the stack above probes for.
var (
	_ device.Pooled         = (*countingDevice)(nil)
	_ device.LineageStamper = (*countingDevice)(nil)
)

// deviceCounts is a snapshot of a countingDevice, taken under its lock.
type deviceCounts struct {
	out, in  int
	writes   []time.Duration
	readWait time.Duration
	wire     [][]byte
}

func (d *countingDevice) snapshot() deviceCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return deviceCounts{
		out: d.out, in: d.in,
		writes:   append([]time.Duration(nil), d.writes...),
		readWait: d.readWait,
		wire:     append([][]byte(nil), d.wire...),
	}
}

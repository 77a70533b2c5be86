package netem

import (
	"fmt"
	"strings"
	"time"

	"intango/internal/obs"
	"intango/internal/packet"
)

// Direction is the direction a packet travels along a path.
type Direction int

const (
	// ToServer is client→server travel.
	ToServer Direction = iota
	// ToClient is server→client travel.
	ToClient
)

// String names the direction for traces.
func (d Direction) String() string {
	if d == ToServer {
		return "→srv"
	}
	return "→cli"
}

// Flip returns the opposite direction.
func (d Direction) Flip() Direction { return 1 - d }

// Verdict is a processor's decision about a packet.
type Verdict int

const (
	// Pass forwards the (possibly mutated) packet.
	Pass Verdict = iota
	// Drop silently discards the packet.
	Drop
)

// Processor is anything attached at a hop that sees packets in both
// directions: middleboxes, and the GFW wiretap. An on-path wiretap must
// return Pass and must not mutate the packet (clone first); in-path
// middleboxes may mutate or Drop.
type Processor interface {
	// Name labels the processor in traces.
	Name() string
	// Process handles pkt traveling in dir at this hop.
	Process(ctx *Context, pkt *packet.Packet, dir Direction) Verdict
}

// Endpoint receives packets at either end of a path.
type Endpoint interface {
	Deliver(pkt *packet.Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(pkt *packet.Packet)

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(pkt *packet.Packet) { f(pkt) }

// Hop is one position on a path: a router (which decrements TTL and
// emits ICMP Time-Exceeded) with optional attached processors, plus the
// link toward the next element (server side).
type Hop struct {
	Name   string
	Router bool // decrement TTL, expire packets
	// Taps are "on-path" observers (§2.1): they see every packet that
	// arrives at this hop — including packets about to expire here —
	// before TTL processing, cannot drop, and must not mutate. The GFW
	// wiretap attaches here.
	Taps []Processor
	// Processors are "in-path" devices (middleboxes): they run after
	// TTL processing and may mutate or Drop.
	Processors []Processor
	// Latency and LossRate describe the link from this hop toward the
	// next element (the next hop, or the server after the last hop).
	Latency  time.Duration
	LossRate float64
	// Rate, when nonzero, caps the link at that many bits per second:
	// packets serialize through a finite FIFO of Queue packets
	// (DefaultQueueLimit when zero) with tail-drop, or RED when set.
	// Both directions of the link shape independently (full duplex).
	Rate  int64
	Queue int
	RED   bool
}

// Path is a linear client—hops—server topology bound to a simulator.
type Path struct {
	Sim    *Simulator
	Hops   []*Hop
	Client Endpoint
	Server Endpoint
	// ClientLink is the link between the client and the first hop.
	// Rate/Queue/RED shape it exactly as on a Hop.
	ClientLink struct {
		Latency  time.Duration
		LossRate float64
		Rate     int64
		Queue    int
		RED      bool
	}
	// Trace, when set, observes every packet event on the path.
	Trace func(ev TraceEvent)
	// Obs, when set, counts packet events and records path-level
	// flight-recorder entries. Nil means disabled (the default) and
	// costs one branch per event.
	Obs *obs.Obs
	// MTU, when nonzero, is enforced at the client link: datagrams
	// whose wire size exceeds it are dropped (traced as "drop-mtu").
	// The simulator does not auto-fragment; senders must fragment
	// deliberately, as the evasion strategies do.
	MTU int

	// Pool, when set, recycles packets at end-of-life points: link-loss
	// and router drops, middlebox Drop verdicts, and after an endpoint's
	// Deliver returns. Recycling is suppressed while Trace is attached,
	// because TraceEvents retain *Packet pointers. Only pool-owned
	// packets are recycled; heap packets pass through untouched.
	Pool *packet.Pool

	// counts accumulates per-event totals as plain increments — the
	// path belongs to a single simulation, so no atomics are needed on
	// the hot path. FlushCounters folds them into the registry.
	counts [numPathEvents]uint64

	// lastAt is the virtual time of the most recent packet event; the
	// experiment runner reads it to close the teardown span (last wire
	// activity → trial end). One store per event, no allocation.
	lastAt time.Duration

	// lineageN is the wire-ID allocator for causal tracing: every
	// packet gets a path-unique ID the first time it is sent or
	// injected. Assignment is one compare and one increment, always on
	// — IDs must be stable whether or not a tracer is attached, so the
	// determinism guarantee (tracing on == tracing off) holds.
	lineageN uint32

	// ctx is the scratch Context handed to taps and processors; reusing
	// it keeps arrive allocation-free. Processors must not retain it
	// past their Process call (the prober copies it before scheduling).
	ctx Context

	// shapers holds the lazily built per-link per-direction token
	// buckets, indexed by physical link (0 = client link, i+1 = the
	// link leaving hop i). It stays nil — and emit stays two boolean
	// loads — on paths where no link sets a Rate. shapeChk/shaped
	// memoize the scan so it runs once per path.
	shapers  [][2]*linkShaper
	shapeChk bool
	shaped   bool

	// labels memoizes the flight-recorder location labels ("<element>
	// <dir>"), indexed by element+1 and direction, built on first use.
	labels [][2]string
}

// TraceEvent is one observable packet event.
type TraceEvent struct {
	Time  time.Duration
	Where string // element name
	Event string // "send", "fwd", "deliver", "drop-ttl", "drop-loss", "drop-proc", "inject"
	Dir   Direction
	Pkt   *packet.Packet
}

// String renders a trace line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%8.3fms %-12s %-9s %s %s",
		float64(e.Time)/float64(time.Millisecond), e.Where, e.Event, e.Dir, e.Pkt)
}

// Context gives processors access to simulation services and the
// ability to inject packets from their own position. It is agnostic to
// the substrate shape: Net is the Path or Fabric the hop belongs to.
type Context struct {
	Sim *Simulator
	Net Carrier
	// HopIndex is the position of the processor's element: a hop index
	// on a Path, a node id on a Fabric.
	HopIndex int
}

// Inject sends pkt from this context's hop in dir after delay. The GFW
// uses it to fire forged RSTs; reassembling middleboxes use it to emit
// rebuilt datagrams.
func (c *Context) Inject(dir Direction, pkt *packet.Packet, delay time.Duration) {
	c.Net.injectFrom(c.HopIndex, dir, pkt, delay)
}

// Obs returns the substrate's observability bundle (nil when
// disabled), so processors can count and trace their own decisions.
func (c *Context) Obs() *obs.Obs { return c.Net.obsBundle() }

// Pool returns the substrate's packet pool (nil when pooling is
// disabled; all pool constructors fall back to the heap on nil).
func (c *Context) Pool() *packet.Pool { return c.Net.pool() }

// element indices: -1 = client, 0..len(hops)-1 = hops, len(hops) = server.
func (p *Path) serverIndex() int { return len(p.Hops) }

// Path implements Net and Carrier: it is the compiled linear special
// case of a topology, and the only shape the pre-fabric simulator knew.

// injectFrom implements Carrier for Context.Inject.
func (p *Path) injectFrom(from int, dir Direction, pkt *packet.Packet, delay time.Duration) {
	p.emit(from, dir, pkt, delay, true)
}

// pool implements Carrier.
func (p *Path) pool() *packet.Pool { return p.Pool }

// obsBundle implements Carrier.
func (p *Path) obsBundle() *obs.Obs { return p.Obs }

// PacketPool implements Net.
func (p *Path) PacketPool() *packet.Pool { return p.Pool }

// SetClient implements Net.
func (p *Path) SetClient(ep Endpoint) { p.Client = ep }

// SetServer implements Net.
func (p *Path) SetServer(ep Endpoint) { p.Server = ep }

// SetObs implements Net.
func (p *Path) SetObs(b *obs.Obs) { p.Obs = b }

// TraceHook implements Net.
func (p *Path) TraceHook() func(ev TraceEvent) { return p.Trace }

// SetTraceHook implements Net.
func (p *Path) SetTraceHook(fn func(ev TraceEvent)) { p.Trace = fn }

// Path event indices for the hot-path counters.
const (
	evSend = iota
	evFwd
	evDeliver
	evInject
	evDropLoss
	evDropTTL
	evDropProc
	evDropIPck
	evDropIPOpt
	evDropMTU
	evDropQueue
	evDropRED
	numPathEvents
)

// pathEventLabels are the TraceEvent labels, indexed by event.
var pathEventLabels = [numPathEvents]string{
	"send", "fwd", "deliver", "inject", "drop-loss",
	"drop-ttl", "drop-proc", "drop-ipck", "drop-ipopt", "drop-mtu",
	"drop-queue", "drop-red",
}

// pathEventCounters are the registry counter names, indexed by event.
var pathEventCounters = [numPathEvents]string{
	"netem.send", "netem.fwd", "netem.deliver", "netem.inject", "netem.drop-loss",
	"netem.drop-ttl", "netem.drop-proc", "netem.drop-ipck", "netem.drop-ipopt", "netem.drop-mtu",
	"netem.drop-queue", "netem.drop-red",
}

// trace records one packet event at element idx (-1 the client,
// len(Hops) the server).
func (p *Path) trace(idx int, ev int, dir Direction, pkt *packet.Packet) {
	p.counts[ev]++
	p.lastAt = p.Sim.Now()
	if ev == evSend || ev == evInject {
		p.StampLineage(pkt)
	}
	// Per-hop forwarding stays out of the flight recorder, which would
	// otherwise fill with uninteresting "fwd" lines.
	if p.Obs != nil && ev != evFwd {
		var seq uint32
		var flags uint8
		if pkt.TCP != nil {
			seq = uint32(pkt.TCP.Seq)
			flags = pkt.TCP.Flags
		}
		p.Obs.TracePkt("netem", pathEventLabels[ev], pkt.Lin.ID, pkt.Lin.Parent, seq, flags, p.label(idx, dir))
	}
	if p.Trace != nil {
		p.Trace(TraceEvent{Time: p.Sim.Now(), Where: p.elementName(idx), Event: pathEventLabels[ev], Dir: dir, Pkt: pkt})
	}
}

// label returns "<element name> <dir>" for element idx, building it
// once per path rather than once per event.
func (p *Path) label(idx int, dir Direction) string {
	if len(p.labels) != len(p.Hops)+2 {
		p.labels = make([][2]string, len(p.Hops)+2)
	}
	l := &p.labels[idx+1][dir]
	if *l == "" {
		*l = p.elementName(idx) + " " + dir.String()
	}
	return *l
}

// StampLineage assigns pkt its path-unique wire ID if it does not have
// one yet, and returns the ID. The send/inject path calls it
// implicitly; the strategy engine calls it early so insertion packets
// crafted around an intercepted packet can record it as their parent
// before it ever reaches the wire.
func (p *Path) StampLineage(pkt *packet.Packet) uint32 {
	if pkt.Lin.ID == 0 {
		p.lineageN++
		pkt.Lin.ID = p.lineageN
	}
	return pkt.Lin.ID
}

// LastEventAt implements Net: the virtual time of the most recent
// packet event (zero before any traffic).
func (p *Path) LastEventAt() time.Duration { return p.lastAt }

// FlushCounters folds the path's accumulated event counts into the
// observability registry and resets them. Call once per finished
// trial; a no-op when no Obs is attached.
func (p *Path) FlushCounters() {
	if p.Obs == nil {
		return
	}
	reg := p.Obs.Registry()
	for ev, n := range p.counts {
		reg.Add(pathEventCounters[ev], n)
		p.counts[ev] = 0
	}
}

// pktKind buckets a packet for the per-type drop counters.
func pktKind(pkt *packet.Packet) string {
	switch {
	case pkt.IP.IsFragment():
		return "ipfrag"
	case pkt.TCP != nil:
		return "tcp"
	case pkt.UDP != nil:
		return "udp"
	case pkt.ICMP != nil:
		return "icmp"
	default:
		return "other"
	}
}

// release recycles a pool-owned packet at an end-of-life point. With a
// Trace attached nothing is recycled: trace events hold the pointer.
func (p *Path) release(pkt *packet.Packet) {
	if p.Trace == nil {
		pkt.Release()
	}
}

// SendFromClient transmits pkt from the client end.
func (p *Path) SendFromClient(pkt *packet.Packet) {
	if p.MTU > 0 && wireSize(pkt) > p.MTU {
		p.trace(-1, evDropMTU, ToServer, pkt)
		p.release(pkt)
		return
	}
	p.trace(-1, evSend, ToServer, pkt)
	p.emit(-1, ToServer, pkt, 0, false)
}

// wireSize computes the datagram's on-the-wire size from its fields.
func wireSize(pkt *packet.Packet) int {
	n := pkt.IP.HeaderLen() + len(pkt.Payload)
	switch {
	case pkt.TCP != nil:
		n += pkt.TCP.HeaderLen()
	case pkt.UDP != nil:
		n += packet.UDPHeaderLen
	case pkt.ICMP != nil:
		n += 8 + len(pkt.ICMP.Body)
	}
	return n
}

// SendFromServer transmits pkt from the server end.
func (p *Path) SendFromServer(pkt *packet.Packet) {
	p.trace(p.serverIndex(), evSend, ToClient, pkt)
	p.emit(p.serverIndex(), ToClient, pkt, 0, false)
}

// linkFrom returns the latency/loss of the link leaving element idx in
// direction dir.
func (p *Path) linkFrom(idx int, dir Direction) (time.Duration, float64) {
	if dir == ToServer {
		if idx < 0 {
			return p.ClientLink.Latency, p.ClientLink.LossRate
		}
		return p.Hops[idx].Latency, p.Hops[idx].LossRate
	}
	// ToClient: the link leaving element idx toward the client is the
	// link between idx-1 and idx.
	if idx <= 0 {
		return p.ClientLink.Latency, p.ClientLink.LossRate
	}
	return p.Hops[idx-1].Latency, p.Hops[idx-1].LossRate
}

// linkID maps (element, direction) to the physical link index: 0 is
// the client link, i+1 the link leaving hop i toward the server.
func (p *Path) linkID(from int, dir Direction) int {
	if dir == ToServer {
		return from + 1
	}
	if from <= 0 {
		return 0
	}
	return from
}

// shaperAt returns the token bucket for the link leaving element from
// in direction dir, building it on first use; nil when that link (or
// the whole path) is unrated. The first call scans the path once and
// memoizes the answer, so unshaped paths pay two boolean loads per
// emission and allocate nothing.
func (p *Path) shaperAt(from int, dir Direction) *linkShaper {
	if !p.shapeChk {
		p.shapeChk = true
		p.shaped = p.ClientLink.Rate > 0
		for _, h := range p.Hops {
			if h.Rate > 0 {
				p.shaped = true
			}
		}
		if p.shaped {
			p.shapers = make([][2]*linkShaper, len(p.Hops)+1)
		}
	}
	if !p.shaped {
		return nil
	}
	id := p.linkID(from, dir)
	if sh := p.shapers[id][dir]; sh != nil {
		return sh
	}
	var rate int64
	var queue int
	var red bool
	if id == 0 {
		rate, queue, red = p.ClientLink.Rate, p.ClientLink.Queue, p.ClientLink.RED
	} else {
		h := p.Hops[id-1]
		rate, queue, red = h.Rate, h.Queue, h.RED
	}
	if rate <= 0 {
		return nil
	}
	sh := newLinkShaper(rate, queue, red)
	p.shapers[id][dir] = sh
	return sh
}

// emit schedules pkt's traversal of the link leaving element from in
// direction dir, then processing at the next element. inject marks
// mid-path injections (forged packets, rebuilt datagrams, ICMP). The
// traversal rides a monomorphic packet event (AtPacket) rather than a
// closure, so steady-state emission allocates nothing. On a rated
// link the token bucket adds queueing+serialization delay ahead of
// the propagation latency, or drops the packet at a full queue.
func (p *Path) emit(from int, dir Direction, pkt *packet.Packet, extraDelay time.Duration, inject bool) {
	if inject && from >= 0 && from < p.serverIndex() {
		p.trace(from, evInject, dir, pkt)
	}
	lat, _ := p.linkFrom(from, dir)
	delay := extraDelay + lat
	if p.shaped || !p.shapeChk {
		if sh := p.shaperAt(from, dir); sh != nil {
			qd, ev := sh.admit(p.Sim, wireSize(pkt))
			if ev >= 0 {
				p.trace(from, ev, dir, pkt)
				p.release(pkt)
				return
			}
			delay += qd
		}
	}
	p.Sim.AtPacket(delay, p, pkt, from, dir)
}

// HandlePacket implements PacketHandler: the packet has finished
// crossing the link leaving element from in direction dir. Loss is
// recomputed here (linkFrom is pure) and the PRNG is drawn at fire
// time, exactly as the old closure did, preserving the draw order.
func (p *Path) HandlePacket(pkt *packet.Packet, from int, dir Direction) {
	_, loss := p.linkFrom(from, dir)
	next := from + 1
	if dir == ToClient {
		next = from - 1
	}
	if loss > 0 && p.Sim.Rand().Float64() < loss {
		p.trace(next, evDropLoss, dir, pkt)
		p.release(pkt)
		return
	}
	p.arrive(next, dir, pkt)
}

func (p *Path) elementName(idx int) string {
	switch {
	case idx < 0:
		return "client"
	case idx >= p.serverIndex():
		return "server"
	default:
		return p.Hops[idx].Name
	}
}

// arrive processes pkt at element idx.
func (p *Path) arrive(idx int, dir Direction, pkt *packet.Packet) {
	switch {
	case idx < 0:
		p.trace(-1, evDeliver, dir, pkt)
		if p.Client != nil {
			p.Client.Deliver(pkt)
		}
		p.release(pkt)
		return
	case idx >= p.serverIndex():
		p.trace(p.serverIndex(), evDeliver, dir, pkt)
		if p.Server != nil {
			p.Server.Deliver(pkt)
		}
		p.release(pkt)
		return
	}
	hop := p.Hops[idx]
	p.ctx.Sim, p.ctx.Net, p.ctx.HopIndex = p.Sim, p, idx
	ctx := &p.ctx
	for _, tap := range hop.Taps {
		tap.Process(ctx, pkt, dir)
	}
	if hop.Router {
		// Routers validate the IP header checksum (RFC 1812 §5.2.2)
		// and, in this model, discard datagrams carrying IP options —
		// the §5.3 observation that IP-layer discrepancies "are often
		// dropped by routers or middleboxes" and therefore make poor
		// insertion packets.
		if !pkt.IP.VerifyChecksum() {
			p.trace(idx, evDropIPck, dir, pkt)
			p.release(pkt)
			return
		}
		if len(pkt.IP.Options) > 0 {
			p.trace(idx, evDropIPOpt, dir, pkt)
			p.release(pkt)
			return
		}
		if pkt.IP.TTL <= 1 {
			p.trace(idx, evDropTTL, dir, pkt)
			p.sendTimeExceeded(idx, dir, pkt)
			p.release(pkt)
			return
		}
		pkt.IP.DecrementTTL()
	}
	for _, proc := range hop.Processors {
		if proc.Process(ctx, pkt, dir) == Drop {
			if p.Obs != nil {
				// Attribute the drop to the middlebox and the packet
				// type — §3.4's "middlebox ate the insertion packet".
				p.Obs.Count("middlebox.drop." + proc.Name())
				p.Obs.Count("middlebox.drop-kind." + pktKind(pkt))
			}
			p.trace(idx, evDropProc, dir, pkt)
			p.release(pkt)
			return
		}
	}
	p.trace(idx, evFwd, dir, pkt)
	p.emit(idx, dir, pkt, 0, false)
}

// sendTimeExceeded emits an ICMP Time-Exceeded from hop idx back toward
// the packet's source. With a pool attached the reply reuses pooled
// storage; the heap fallback inside TimeExceededPacket handles the
// rest.
func (p *Path) sendTimeExceeded(idx int, dir Direction, orig *packet.Packet) {
	reply := p.Pool.TimeExceededPacket(orig, p.hopAddr(idx))
	reply.Lin = packet.Lineage{Origin: packet.OriginRouter, Parent: orig.Lin.ID}
	p.emit(idx, dir.Flip(), reply, 0, true)
}

// hopAddr synthesizes a stable router address for hop idx, so
// traceroute-style measurements can distinguish hops.
func (p *Path) hopAddr(idx int) packet.Addr {
	return packet.AddrFrom4(10, 254, byte(idx>>8), byte(idx))
}

// RouterHopCount returns the number of TTL-decrementing hops between the
// client and the server.
func (p *Path) RouterHopCount() int {
	n := 0
	for _, h := range p.Hops {
		if h.Router {
			n++
		}
	}
	return n
}

// HopIndexOf returns the index of the first hop carrying a processor
// with the given name, or -1.
func (p *Path) HopIndexOf(name string) int {
	for i, h := range p.Hops {
		for _, proc := range h.Processors {
			if proc.Name() == name {
				return i
			}
		}
		for _, tap := range h.Taps {
			if tap.Name() == name {
				return i
			}
		}
	}
	return -1
}

// RouterHopsBefore returns how many TTL-decrementing hops a
// client-originated packet crosses up to and including hop idx.
func (p *Path) RouterHopsBefore(idx int) int {
	n := 0
	for i := 0; i <= idx && i < len(p.Hops); i++ {
		if p.Hops[i].Router {
			n++
		}
	}
	return n
}

// Describe renders the topology as a one-line ASCII diagram (Fig. 1).
func (p *Path) Describe() string {
	var b strings.Builder
	b.WriteString("client")
	for _, h := range p.Hops {
		b.WriteString(" — ")
		b.WriteString(h.Name)
		var names []string
		for _, tap := range h.Taps {
			names = append(names, "tap:"+tap.Name())
		}
		for _, proc := range h.Processors {
			names = append(names, proc.Name())
		}
		if len(names) > 0 {
			fmt.Fprintf(&b, "[%s]", strings.Join(names, ","))
		}
	}
	b.WriteString(" — server")
	return b.String()
}

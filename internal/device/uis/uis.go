// Package uis runs a userspace TCP/IP stack over a packet Device and
// exposes it through the standard net.Conn / net.Listener shapes — the
// bassosimone/uis pattern. A real Go net/http client can dial through
// it, its bytes ride the repo's own tcpstack as raw IPv4 datagrams,
// and whatever sits on the far side of the device (the intangd proxy,
// a simulated censored path, a test pipe) sees honest wire traffic.
//
// Internally the stack owns a private discrete-event simulator driven
// by an event-driven netem.Clock, so the tcpstack's virtual timers
// (RTO, persist, TIME_WAIT) fire in real time and an idle stack sleeps.
// One mutex serializes the simulator, the TCP state machines, and the
// connection buffers; the read pump and the clock pump are the only
// goroutines that take it besides callers. Blocked callers wait on one
// condition, broadcast when a packet arrives, when timers ran, or when
// a deadline or context fires.
package uis

import (
	"context"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"intango/internal/device"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Config parameterizes a Stack.
type Config struct {
	// Addr is the stack's IPv4 address (required).
	Addr packet.Addr
	// Profile is the TCP profile; the zero value means Linux 4.4.
	Profile tcpstack.Profile
	// Seed drives the stack's private simulator (ISNs, timer jitter).
	Seed int64
	// TimeScale multiplies wall time into virtual time (default 1.0);
	// >1 makes the stack's timers run fast, matching a proxy world
	// driven at the same scale.
	TimeScale float64
	// DialTimeout bounds Dial's wait for the handshake (default 10s).
	DialTimeout time.Duration
	// Hosts resolves names the Dialer sees to addresses on the far
	// side of the device; literal IPv4 strings always resolve.
	Hosts map[string]packet.Addr
}

// Stack is a userspace TCP/IP endpoint bound to a Device.
type Stack struct {
	cfg Config
	dev device.Device

	mu    sync.Mutex
	note  sync.Cond
	sim   *netem.Simulator
	clock *netem.Clock
	wakes obs.Counter
	tcp   *tcpstack.Stack
	down  bool // device closed under us

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// New builds a stack over dev and starts its pumps.
func New(dev device.Device, cfg Config) *Stack {
	if cfg.Profile.Name == "" {
		cfg.Profile = tcpstack.Linux44()
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	s := &Stack{cfg: cfg, dev: dev, stop: make(chan struct{})}
	s.note.L = &s.mu
	s.sim = netem.NewSimulator(cfg.Seed)
	s.clock = netem.NewClock(s.sim, &s.mu, cfg.TimeScale, &s.wakes)
	s.tcp = tcpstack.NewStack(cfg.Addr, cfg.Profile, s.sim)
	s.tcp.AttachDevice(dev)
	s.wg.Add(2)
	go s.readPump()
	go s.clockPump()
	return s
}

// Close stops the pumps and closes the underlying device.
func (s *Stack) Close() error {
	s.once.Do(func() {
		close(s.stop)
		s.dev.Close() // unblocks the read pump
	})
	s.wg.Wait()
	return nil
}

// ClockWakes returns how many times the stack's clock driver woke; it
// stays put while the stack is idle.
func (s *Stack) ClockWakes() uint64 { return s.wakes.Value() }

// wake rouses every blocked caller so it re-checks its condition. It
// takes the lock, so a caller between its check and its Wait cannot
// miss it; timers and context callbacks run it.
func (s *Stack) wake() {
	s.mu.Lock()
	s.note.Broadcast()
	s.mu.Unlock()
}

// readPump moves inbound datagrams from the device into the TCP stack
// and recycles each once delivered (the stack copies what it keeps).
func (s *Stack) readPump() {
	defer s.wg.Done()
	for {
		pkt, err := s.dev.ReadPacket()
		if err != nil {
			s.mu.Lock()
			s.down = true
			s.mu.Unlock()
			s.note.Broadcast()
			return
		}
		s.mu.Lock()
		s.clock.Sync()
		s.tcp.Deliver(pkt)
		s.clock.Kick()
		s.mu.Unlock()
		s.note.Broadcast()
		pkt.Release()
	}
}

// clockPump runs the stack's clock driver until Close, waking blocked
// callers whenever timers ran.
func (s *Stack) clockPump() {
	defer s.wg.Done()
	s.clock.Run(s.stop, s.note.Broadcast)
}

// Dial opens a TCP connection to raddr:rport through the device and
// blocks until the handshake completes (or DialTimeout).
func (s *Stack) Dial(raddr packet.Addr, rport uint16) (net.Conn, error) {
	return s.dial(context.Background(), raddr, rport, time.Now().Add(s.cfg.DialTimeout))
}

// dial connects and waits for the handshake, until deadline or until
// ctx is done, whichever comes first.
func (s *Stack) dial(ctx context.Context, raddr packet.Addr, rport uint16, deadline time.Time) (net.Conn, error) {
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, s.wake)()
	}
	defer time.AfterFunc(time.Until(deadline), s.wake).Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, device.ErrClosed
	}
	s.clock.Sync()
	tc := s.tcp.Connect(raddr, rport)
	s.clock.Kick()
	c := newConn(s, tc)
	for {
		switch tc.State() {
		case tcpstack.Established:
			return c, nil
		case tcpstack.SynSent, tcpstack.SynRecv:
			// still shaking hands
		default:
			return nil, s.refusedErr(tc, raddr, rport)
		}
		if s.down {
			return nil, device.ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("uis: dial %v:%d: %w", raddr, rport, err)
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("uis: dial %v:%d: %w", raddr, rport, os.ErrDeadlineExceeded)
		}
		s.note.Wait()
	}
}

func (s *Stack) refusedErr(tc *tcpstack.Conn, raddr packet.Addr, rport uint16) error {
	why := tc.AbortReason
	if why == "" && tc.GotRST {
		why = "connection reset"
	}
	if why == "" {
		why = "connection closed"
	}
	return fmt.Errorf("uis: dial %v:%d: %s", raddr, rport, why)
}

// DialContext implements the http.Transport dialer shape. The address
// host resolves through Config.Hosts or as a literal IPv4; the network
// must be "tcp". The dial gives up at the context's deadline (or
// DialTimeout, if sooner) and as soon as the context is cancelled.
func (s *Stack) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("uis: unsupported network %q", network)
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("uis: dial %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 || port > 65535 {
		return nil, fmt.Errorf("uis: dial %q: bad port", addr)
	}
	raddr, ok := s.resolve(host)
	if !ok {
		return nil, fmt.Errorf("uis: dial %q: unknown host", addr)
	}
	deadline := time.Now().Add(s.cfg.DialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return s.dial(ctx, raddr, uint16(port), deadline)
}

func (s *Stack) resolve(host string) (packet.Addr, bool) {
	if a, ok := s.cfg.Hosts[host]; ok {
		return a, true
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return packet.Addr{}, false
	}
	v4 := ip.To4()
	if v4 == nil {
		return packet.Addr{}, false
	}
	return packet.AddrFrom4(v4[0], v4[1], v4[2], v4[3]), true
}

// Listen binds a TCP listener on port.
func (s *Stack) Listen(port uint16) (net.Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &Listener{stack: s, port: port}
	s.tcp.Listen(port, func(tc *tcpstack.Conn) {
		// Runs under s.mu (delivery path).
		l.pending = append(l.pending, newConn(s, tc))
	})
	return l, nil
}

// Listener accepts connections from the stack's TCP listener.
type Listener struct {
	stack   *Stack
	port    uint16
	pending []*Conn
	closed  bool
}

// Accept blocks until a handshake lands on the listener's port.
func (l *Listener) Accept() (net.Conn, error) {
	s := l.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(l.pending) == 0 && !l.closed && !s.down {
		s.note.Wait()
	}
	if l.closed || s.down {
		return nil, device.ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

// Close stops the listener (established connections live on).
func (l *Listener) Close() error {
	s := l.stack
	s.mu.Lock()
	l.closed = true
	s.mu.Unlock()
	s.note.Broadcast()
	return nil
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr {
	a := l.stack.cfg.Addr
	return &net.TCPAddr{IP: net.IPv4(a[0], a[1], a[2], a[3]), Port: int(l.port)}
}

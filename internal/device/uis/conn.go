package uis

import (
	"errors"
	"io"
	"net"
	"os"
	"time"

	"intango/internal/tcpstack"
)

// ErrReset is returned by Read/Write after the peer (or a censor
// injecting on the path) reset the connection.
var ErrReset = errors.New("uis: connection reset by peer")

// Conn adapts one tcpstack connection to net.Conn. All state is
// guarded by the owning stack's mutex; OnData runs on the delivery
// path with that mutex already held, so the callback only appends.
type Conn struct {
	stack *Stack
	tc    *tcpstack.Conn

	buf    []byte // received, not yet Read
	closed bool   // local Close called

	readDeadline  time.Time
	writeDeadline time.Time
	// readTimer wakes blocked readers when readDeadline passes.
	readTimer *time.Timer
}

func newConn(s *Stack, tc *tcpstack.Conn) *Conn {
	c := &Conn{stack: s, tc: tc}
	tc.OnData = func(data []byte) {
		// Delivery path: s.mu held. The stack recycles the packet the
		// bytes came from, so copy.
		c.buf = append(c.buf, data...)
	}
	return c
}

// eofState reports whether the peer can send no more data (FIN
// received in some form, or fully closed).
func eofState(st tcpstack.State) bool {
	switch st {
	case tcpstack.CloseWait, tcpstack.LastAck, tcpstack.Closing, tcpstack.TimeWait, tcpstack.Closed:
		return true
	}
	return false
}

// Read blocks until buffered data, EOF, reset, deadline, or close.
func (c *Conn) Read(b []byte) (int, error) {
	s := c.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(c.buf) > 0 {
			n := copy(b, c.buf)
			c.buf = c.buf[n:]
			return n, nil
		}
		switch {
		case c.closed:
			return 0, net.ErrClosed
		case c.tc.GotRST:
			return 0, ErrReset
		case eofState(c.tc.State()):
			return 0, io.EOF
		case s.down:
			return 0, io.ErrUnexpectedEOF
		}
		if !c.readDeadline.IsZero() && !time.Now().Before(c.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		// Arriving packets, timers that ran and the deadline's own
		// timer all broadcast.
		s.note.Wait()
	}
}

// Write queues data on the connection.
func (c *Conn) Write(b []byte) (int, error) {
	s := c.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.tc.GotRST {
		return 0, ErrReset
	}
	if !c.writeDeadline.IsZero() && time.Now().After(c.writeDeadline) {
		return 0, os.ErrDeadlineExceeded
	}
	st := c.tc.State()
	if st != tcpstack.Established && st != tcpstack.CloseWait {
		return 0, net.ErrClosed
	}
	s.clock.Sync()
	c.tc.Write(b)
	s.clock.Kick()
	return len(b), nil
}

// Close starts an orderly shutdown (FIN after queued data).
func (c *Conn) Close() error {
	s := c.stack
	s.mu.Lock()
	if !c.closed {
		c.closed = true
		c.setReadTimer(time.Time{})
		s.clock.Sync()
		c.tc.Close()
		s.clock.Kick()
	}
	s.mu.Unlock()
	s.note.Broadcast()
	return nil
}

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() net.Addr {
	a := c.stack.cfg.Addr
	return &net.TCPAddr{IP: net.IPv4(a[0], a[1], a[2], a[3]), Port: int(c.tc.LocalPort())}
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr {
	a, p := c.tc.RemoteAddr()
	return &net.TCPAddr{IP: net.IPv4(a[0], a[1], a[2], a[3]), Port: int(p)}
}

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.stack.mu.Lock()
	c.writeDeadline = t
	c.setReadTimer(t)
	c.stack.mu.Unlock()
	c.stack.note.Broadcast()
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.stack.mu.Lock()
	c.setReadTimer(t)
	c.stack.mu.Unlock()
	c.stack.note.Broadcast()
	return nil
}

// setReadTimer sets the read deadline and re-arms the timer that wakes
// blocked readers when it passes (none for the zero time). Callers
// hold the stack lock.
func (c *Conn) setReadTimer(t time.Time) {
	c.readDeadline = t
	if c.readTimer != nil {
		c.readTimer.Stop()
		c.readTimer = nil
	}
	if !t.IsZero() {
		c.readTimer = time.AfterFunc(time.Until(t), c.stack.wake)
	}
}

// SetWriteDeadline sets the write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.stack.mu.Lock()
	c.writeDeadline = t
	c.stack.mu.Unlock()
	c.stack.note.Broadcast()
	return nil
}

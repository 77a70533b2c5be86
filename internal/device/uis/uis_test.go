package uis_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"intango/internal/device"
	"intango/internal/device/uis"
	"intango/internal/packet"
)

func newPair(t *testing.T) (cli, srv *uis.Stack) {
	t.Helper()
	a, b := device.NewPipe(0)
	srv = uis.New(a, uis.Config{
		Addr: packet.AddrFrom4(203, 0, 113, 80),
		Seed: 2,
	})
	cli = uis.New(b, uis.Config{
		Addr:  packet.AddrFrom4(10, 0, 0, 1),
		Seed:  1,
		Hosts: map[string]packet.Addr{"server.example": packet.AddrFrom4(203, 0, 113, 80)},
	})
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli, srv
}

// TestEchoAndEOF runs a raw byte exchange over two userspace stacks
// joined by a pipe: data both ways, then an orderly close that the
// peer reads as io.EOF.
func TestEchoAndEOF(t *testing.T) {
	cli, srv := newPair(t)
	l, err := srv.Listen(9000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil {
			done <- fmt.Errorf("server read: %w", err)
			return
		}
		if _, err := c.Write(append([]byte("echo:"), buf[:n]...)); err != nil {
			done <- fmt.Errorf("server write: %w", err)
			return
		}
		c.Close()
		done <- nil
	}()

	conn, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 9000)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	reply, err := io.ReadAll(conn) // reads until the server's FIN
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(reply) != "echo:ping" {
		t.Errorf("reply: got %q want %q", reply, "echo:ping")
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	conn.Close()
}

// TestNetHTTPOverUserspaceStack is the ROADMAP shape reduced to its
// core: a stock net/http client and a stock net/http server, each on
// its own userspace stack, talking across a packet pipe.
func TestNetHTTPOverUserspaceStack(t *testing.T) {
	cli, srv := newPair(t)
	l, err := srv.Listen(80)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello from userspace, path=%s", r.URL.Path)
	}))

	hc := &http.Client{
		Transport: &http.Transport{DialContext: cli.DialContext},
		Timeout:   10 * time.Second,
	}
	resp, err := hc.Get("http://server.example/probe")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("status: got %d", resp.StatusCode)
	}
	if string(body) != "hello from userspace, path=/probe" {
		t.Errorf("body: got %q", body)
	}
}

// TestReadDeadline: a blocked Read honors SetReadDeadline.
func TestReadDeadline(t *testing.T) {
	cli, srv := newPair(t)
	l, err := srv.Listen(9100)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go l.Accept() // accept and hold silently

	conn, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 9100)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read: got %v want deadline exceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("deadline took %v", waited)
	}
}

// TestReadDeadlineWakesOnTime: once the connection is quiet, with no
// packet in flight and no TCP timer due, only the deadline's own timer
// can wake a blocked Read — and it must.
func TestReadDeadlineWakesOnTime(t *testing.T) {
	cli, srv := newPair(t)
	l, err := srv.Listen(9300)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go l.Accept()
	conn, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 9300)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	time.Sleep(500 * time.Millisecond) // let the handshake's timers run out
	conn.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read: got %v want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read still blocked 2s after its 30ms deadline")
	}
}

// TestDialRefused: dialing a port nobody listens on gets the stack's
// RST back as a dial error, not a hang.
func TestDialRefused(t *testing.T) {
	cli, _ := newPair(t)
	_, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 4444)
	if err == nil {
		t.Fatalf("Dial succeeded against a closed port")
	}
}

// TestDialContextCancel: a dial whose far end never answers returns
// context.Canceled as soon as its context is cancelled, not after
// DialTimeout.
func TestDialContextCancel(t *testing.T) {
	_, b := device.NewPipe(0) // nobody reads the far end
	// At a hundredth of wall speed the SYN's 200 ms retransmission
	// timer is 20 s away, so only the cancellation can end the dial.
	st := uis.New(b, uis.Config{Addr: packet.AddrFrom4(10, 0, 0, 1), Seed: 1, TimeScale: 0.01})
	defer st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := st.DialContext(ctx, "tcp", "203.0.113.80:80")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DialContext: got %v want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("cancelled dial returned after %v", waited)
	}
}

// TestStackCloseLeaksNoGoroutines: a stack that dialed, exchanged data
// and set a read deadline leaves no goroutine behind once closed.
func TestStackCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		a, b := device.NewPipe(0)
		srv := uis.New(a, uis.Config{Addr: packet.AddrFrom4(203, 0, 113, 80), Seed: 2})
		cli := uis.New(b, uis.Config{Addr: packet.AddrFrom4(10, 0, 0, 1), Seed: 1})
		defer srv.Close()
		defer cli.Close()
		l, _ := srv.Listen(9200)
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		conn, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 9200)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(time.Hour))
		conn.Write([]byte("x"))
		sc := <-accepted
		sc.Read(make([]byte, 1))
		conn.Close()
		sc.Close()
	}()
	waitGoroutines(t, before)
}

// waitGoroutines fails unless the goroutine count falls back to n
// within a few seconds.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, started with %d:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

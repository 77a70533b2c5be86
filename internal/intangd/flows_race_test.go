package intangd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/device/uis"
	"intango/internal/intangd"
	"intango/internal/packet"
	"intango/internal/plane"
)

// TestFlowTableConcurrency hammers the sharded table directly:
// concurrent setup (outbound touches on fresh tuples), traffic on both
// directions, teardown via Expire, and snapshot scrapes — the shapes
// the daemon runs simultaneously. The race detector is the real
// assertion; the counts at the end are a sanity floor.
func TestFlowTableConcurrency(t *testing.T) {
	ft := intangd.NewFlowTable(8)
	const workers = 8
	const flowsPerWorker = 50

	var writers, loops sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: Snapshot + Len in a tight loop while writers run.
	loops.Add(1)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ft.Snapshot(time.Now())
			ft.Len()
		}
	}()

	// Expirer: everything idle for >1ms goes; writers keep re-creating.
	loops.Add(1)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ft.Expire(time.Now(), time.Millisecond)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			src := packet.AddrFrom4(10, 0, byte(w), 1)
			dst := packet.AddrFrom4(203, 0, 113, 80)
			for i := 0; i < flowsPerWorker; i++ {
				out := packet.NewTCP(src, uint16(10000+i), dst, 80, packet.FlagPSH|packet.FlagACK, 1, 1, []byte("x"))
				in := packet.NewTCP(dst, 80, src, uint16(10000+i), packet.FlagACK|packet.FlagRST, 1, 2, nil)
				for j := 0; j < 5; j++ {
					ft.TouchOutbound(out, "pass", time.Now(), 0)
					ft.TouchInbound(in, time.Now(), 0)
				}
			}
		}(w)
	}

	// Let writers finish, then stop the background loops.
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("flow table hammer wedged")
	}
	close(stop)
	loops.Wait()

	// Everything idle now; a final expire drains the table.
	ft.Expire(time.Now().Add(time.Hour), time.Millisecond)
	if n := ft.Len(); n != 0 {
		t.Errorf("table not drained: %d flows left", n)
	}
}

// TestProxyConcurrentFlowsWithPlaneScrape runs the whole daemon hot:
// concurrent client connections opening, transferring and closing
// through the engine while /flows and /metrics are scraped over real
// HTTP mid-traffic, then a short idle timeout expires the leftovers.
func TestProxyConcurrentFlowsWithPlaneScrape(t *testing.T) {
	p, err := intangd.New(intangd.Config{
		Censor:      testCensor,
		Strategy:    "teardown-reversal",
		Seed:        11,
		IdleTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli := uis.New(p.ClientDevice(), uis.Config{Addr: p.ClientAddr(), Seed: 3})
	pl, err := plane.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("plane.Listen: %v", err)
	}
	p.Mount(pl)
	bound := pl.Addr()
	t.Cleanup(func() {
		pl.Close()
		cli.Close()
		p.Close()
	})

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				conn, err := cli.Dial(p.ServerAddr(), 80)
				if err != nil {
					errs <- fmt.Errorf("client %d dial: %w", c, err)
					return
				}
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				// Innocuous URI: the flows exercise the engine without
				// tripping the censor's pair blocklist mid-hammer.
				if _, err := conn.Write(appsim.HTTPRequest("origin.example", fmt.Sprintf("/c%d/%d", c, i))); err != nil {
					errs <- fmt.Errorf("client %d write: %w", c, err)
					conn.Close()
					return
				}
				var got []byte
				buf := make([]byte, 2048)
				for !appsim.HTTPResponseComplete(got) {
					n, err := conn.Read(buf)
					if err != nil {
						errs <- fmt.Errorf("client %d read (%d bytes so far): %w", c, len(got), err)
						conn.Close()
						return
					}
					got = append(got, buf[:n]...)
				}
				conn.Close()
			}
		}(c)
	}

	// Mid-traffic plane scrapes, interleaved with the clients.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 20; i++ {
			resp, err := http.Get("http://" + bound + "/flows")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err = http.Get("http://" + bound + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	<-scrapeDone

	// The daemon saw every flow.
	resp, err := http.Get("http://" + bound + "/flows")
	if err != nil {
		t.Fatalf("final /flows: %v", err)
	}
	var dump struct {
		Count int                `json:"count"`
		Flows []intangd.FlowView `json:"flows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode /flows: %v", err)
	}
	resp.Body.Close()
	for _, v := range dump.Flows {
		if v.Strategy != "teardown-reversal" {
			t.Errorf("flow %s recorded strategy %q", v.Tuple, v.Strategy)
		}
	}

	// Idle expiry drains the table (and the engine's flow map with it).
	deadline := time.Now().Add(10 * time.Second)
	for p.FlowCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flows never expired: %d live", p.FlowCount())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

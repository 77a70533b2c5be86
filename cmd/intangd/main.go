// Command intangd is the live evasion proxy daemon: it runs the
// strategy engine long-lived in front of a censored path, accepts real
// TCP clients, and multiplexes their flows through whichever evasion
// strategy is currently selected — switchable at runtime over the
// observability plane.
//
// Usage:
//
//	intangd serve    [-listen addr] [-plane addr] [-censor ref] [-strategy ref] [-seed n] [-idle d] [-ports-file path]
//	intangd fetch    [-addr host:port] [-host name] [-uri path] [-expect ok|blocked] [-timeout d]
//	intangd strategy [-plane addr] <ref>
//	intangd flows    [-plane addr]
//
// serve bridges every accepted TCP connection onto a userspace TCP
// stack dialing the censored origin through the engine; fetch is the
// matching client, one HTTP GET classified as ok (complete 200) or
// blocked; strategy and flows talk to a running daemon's plane.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"intango/internal/appsim"
	"intango/internal/device/uis"
	"intango/internal/intangd"
	"intango/internal/plane"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "fetch":
		err = fetch(os.Args[2:])
	case "strategy":
		err = strategy(os.Args[2:])
	case "flows":
		err = flows(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "intangd: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: intangd {serve|fetch|strategy|flows} [flags]")
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "address to accept client TCP connections on")
		planeAddr = fs.String("plane", "127.0.0.1:0", "observability plane address (/flows, /metrics, /strategy, /healthz)")
		censorRef = fs.String("censor", "gfw2017", "censor-zoo name or raw censor spec for the simulated path")
		strat     = fs.String("strategy", "", "initial strategy: builtin name, raw spec, or 'pass'")
		seed      = fs.Int64("seed", 1, "world seed")
		idle      = fs.Duration("idle", 60*time.Second, "idle-flow expiry timeout")
		timescale = fs.Float64("timescale", 1, "virtual seconds per wall second on the censored path; measured on a 2-vCPU VM: no ordering failures up to 500, while at 1000 a 1 ms virtual hop is 1 µs of wall time and 8,364 of 41,132 fetches failed")
		portsFile = fs.String("ports-file", "", "write bound addresses here (shell-sourceable) once listening")
	)
	fs.Parse(args)

	p, err := intangd.New(intangd.Config{
		Censor:      *censorRef,
		Strategy:    *strat,
		Seed:        *seed,
		IdleTimeout: *idle,
		TimeScale:   *timescale,
	})
	if err != nil {
		return err
	}
	defer p.Close()

	stack := uis.New(p.ClientDevice(), uis.Config{
		Addr:      p.ClientAddr(),
		Seed:      *seed + 1,
		TimeScale: *timescale,
	})
	defer stack.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()

	pl, err := plane.Listen(*planeAddr)
	if err != nil {
		return err
	}
	defer pl.Close()
	p.Mount(pl)
	bound := pl.Addr()

	fmt.Printf("intangd: proxy on %s, plane on http://%s, censor %q, strategy %q\n",
		ln.Addr(), bound, *censorRef, p.Strategy())
	if *portsFile != "" {
		body := fmt.Sprintf("proxy=%s\nplane=%s\n", ln.Addr(), bound)
		if err := os.WriteFile(*portsFile, []byte(body), 0o644); err != nil {
			return err
		}
	}

	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go bridge(c, stack, p)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("intangd: shutting down")
	return nil
}

// bridge pipes one accepted client connection through the userspace
// stack to the censored origin. A censor reset surfaces as the
// upstream leg dying, which tears the client leg down with it — the
// client sees exactly what a censored user sees.
func bridge(c net.Conn, stack *uis.Stack, p *intangd.Proxy) {
	defer c.Close()
	up, err := stack.Dial(p.ServerAddr(), 80)
	if err != nil {
		return
	}
	defer up.Close()
	done := make(chan struct{}, 2)
	go func() { io.Copy(up, c); up.Close(); done <- struct{}{} }()
	go func() { io.Copy(c, up); c.Close(); done <- struct{}{} }()
	<-done
	<-done
}

func fetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "proxy address (host:port) to connect to")
		host    = fs.String("host", "origin.example", "Host header")
		uri     = fs.String("uri", "/", "request URI")
		expect  = fs.String("expect", "", "assert the outcome: ok or blocked")
		timeout = fs.Duration("timeout", 10*time.Second, "overall fetch deadline")
	)
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("fetch: -addr required")
	}

	outcome := "blocked"
	c, err := net.DialTimeout("tcp", *addr, *timeout)
	if err == nil {
		c.SetDeadline(time.Now().Add(*timeout))
		var got []byte
		if _, err := c.Write(appsim.HTTPRequest(*host, *uri)); err == nil {
			buf := make([]byte, 4096)
			for !appsim.HTTPResponseComplete(got) {
				n, err := c.Read(buf)
				got = append(got, buf[:n]...)
				if err != nil {
					break
				}
			}
		}
		c.Close()
		if appsim.HTTPResponseComplete(got) && bytes.Contains(got, []byte(" 200 ")) {
			outcome = "ok"
		}
	}

	fmt.Printf("fetch %s%s: %s\n", *host, *uri, outcome)
	if *expect != "" && outcome != *expect {
		return fmt.Errorf("fetch: got %q, expected %q", outcome, *expect)
	}
	return nil
}

func strategy(args []string) error {
	fs := flag.NewFlagSet("strategy", flag.ExitOnError)
	plane := fs.String("plane", "", "plane address (host:port)")
	fs.Parse(args)
	if *plane == "" {
		return fmt.Errorf("strategy: -plane required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("strategy: one strategy reference required")
	}
	u := "http://" + *plane + "/strategy?set=" + url.QueryEscape(fs.Arg(0))
	resp, err := http.Post(u, "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		return fmt.Errorf("strategy: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Print(string(body))
	return nil
}

func flows(args []string) error {
	fs := flag.NewFlagSet("flows", flag.ExitOnError)
	plane := fs.String("plane", "", "plane address (host:port)")
	fs.Parse(args)
	if *plane == "" {
		return fmt.Errorf("flows: -plane required")
	}
	resp, err := http.Get("http://" + *plane + "/flows")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

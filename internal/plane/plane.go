// Package plane is a process's one observability server: an HTTP
// listener and mux that a binary mounts its live feeds on. cmd/tables
// mounts a campaign's or a fleet's views, cmd/intangd the daemon's
// flows, metrics and strategy switch. It is the only place the module
// builds an http.Server, and every plane answers /healthz.
//
// Serving lives here and in the binaries, never in the packages whose
// state is served: internal/experiment and internal/fleet expose plain
// feed closures and do not link net/http, whose init-time heap globals
// every GC cycle of every program linking the harness would otherwise
// mark — a measurable tax on the trial hot path (BenchmarkTrialHotPath).
// `make deps-check` holds that line.
package plane

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
)

// Plane is a bound, serving observability endpoint.
type Plane struct {
	ln  net.Listener
	mux *http.ServeMux
	srv *http.Server
}

// Listen binds addr and starts serving at once; feeds are mounted with
// Handle, and /healthz answers "ok" from the start. Use "127.0.0.1:0"
// for an ephemeral port.
func Listen(addr string) (*Plane, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Plane{ln: ln, mux: http.NewServeMux()}
	p.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	p.srv = &http.Server{Handler: p.mux}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

// Addr returns the bound address (host:port).
func (p *Plane) Addr() string { return p.ln.Addr().String() }

// Handle mounts h at pattern; safe while the plane serves.
func (p *Plane) Handle(pattern string, h http.Handler) { p.mux.Handle(pattern, h) }

// Close stops serving and closes every open connection.
func (p *Plane) Close() error { return p.srv.Close() }

// JSON serves get's value as a JSON document. Like Metrics, it drops
// the write error: a failed write means the scraper hung up, and there
// is no one left to tell.
func JSON(get func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(get())
	}
}

// Metrics serves the Prometheus text exposition that write renders
// (through internal/obs, the module's one exposition writer).
func Metrics(write func(io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = write(w)
	}
}

package intangd

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
)

// ServePlane binds addr and serves the daemon's observability plane
// until stop is called:
//
//	/flows     live flow table (JSON)
//	/metrics   Prometheus exposition of the daemon's counters
//	/strategy  GET current; POST ?set=<ref> (or body) to switch
//	/healthz   liveness
//
// The packet path never touches this handler: /flows reads the sharded
// flow table, /metrics snapshots atomic counters, and only /metrics
// (to flush the path's event counts) and /strategy briefly take the
// world lock.
func (p *Proxy) ServePlane(addr string) (stop func(), bound string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/flows", func(w http.ResponseWriter, _ *http.Request) {
		views := p.FlowViews()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Count int        `json:"count"`
			Flows []FlowView `json:"flows"`
		}{len(views), views})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = p.Registry().Snapshot().WriteProm(w, "intangd_")
	})
	mux.HandleFunc("/strategy", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			ref := r.URL.Query().Get("set")
			if ref == "" {
				body, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
				ref = strings.TrimSpace(string(body))
			}
			if err := p.SetStrategy(ref); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Strategy string `json:"strategy"`
		}{p.Strategy()})
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return func() { _ = srv.Close() }, ln.Addr().String(), nil
}

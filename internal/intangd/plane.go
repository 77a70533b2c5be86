package intangd

import (
	"io"
	"net/http"
	"strings"

	"intango/internal/plane"
)

// Mount serves the daemon's observability feeds on pl:
//
//	/flows     live flow table (JSON)
//	/metrics   Prometheus exposition of the daemon's counters
//	/strategy  GET current; POST ?set=<ref> (or body) to switch
//
// (every plane also answers /healthz). The packet path never touches
// these handlers: /flows reads the sharded flow table, /metrics
// snapshots atomic counters, and only /metrics (to flush the path's
// event counts) and /strategy briefly take the world lock.
func (p *Proxy) Mount(pl *plane.Plane) {
	pl.Handle("/flows", plane.JSON(func() any {
		views := p.FlowViews()
		return struct {
			Count int        `json:"count"`
			Flows []FlowView `json:"flows"`
		}{len(views), views}
	}))
	pl.Handle("/metrics", plane.Metrics(func(w io.Writer) error {
		return p.Registry().Snapshot().WriteProm(w, "intangd_")
	}))
	current := plane.JSON(func() any {
		return struct {
			Strategy string `json:"strategy"`
		}{p.Strategy()}
	})
	pl.Handle("/strategy", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
		current(w, r)
	}))
}

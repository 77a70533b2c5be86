package fleet

import (
	"io"
	"strconv"

	"intango/internal/experiment"
	"intango/internal/obs"
)

// ShardStatus is one shard's live row in the /shards view: where it is
// in the pending → running → checkpointed → done (or failed) state
// machine, its trial cursor, and how stale its last checkpoint frame
// is.
type ShardStatus struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	JobStart int    `json:"job_start"`
	JobEnd   int    `json:"job_end"`
	Cursor   int    `json:"cursor"`
	Done     int64  `json:"done"`
	Success  int64  `json:"success"`
	Frames   int    `json:"frames"`
	// LastFrameAgeSec is seconds since the shard last journaled a
	// frame; absent until the first frame.
	LastFrameAgeSec float64 `json:"last_frame_age_sec,omitempty"`
	// Resumed marks a shard restored from a checkpoint frame.
	Resumed bool `json:"resumed,omitempty"`
	// Error carries the failure reason for failed shards.
	Error string `json:"error,omitempty"`
}

// ShardsView is the /shards payload: the fleet state machine plus the
// campaign-level rollup counts.
type ShardsView struct {
	Campaign   string        `json:"campaign"`
	Total      int           `json:"total_jobs"`
	Done       int64         `json:"done"`
	ShardsDone int           `json:"shards_done"`
	Shards     []ShardStatus `json:"shards"`
}

// SeriesView is the /timeseries payload: the fleet-level sampled curve
// plus each shard's checkpoint-stitched curve, keyed by shard ID.
type SeriesView struct {
	Fleet  obs.TimeSeriesSnapshot            `json:"fleet"`
	Shards map[string]obs.TimeSeriesSnapshot `json:"shards"`
}

// Feeds bundles the live views of a fleet campaign: /shards,
// /progress, /timeseries and /manifest, with /metrics rendered from
// Progress and Shards by WriteMetrics. All closures are safe to call
// concurrently with the running campaign; they read atomics and
// mutex-guarded shard fields, never the trial hot path.
type Feeds struct {
	Shards   func() ShardsView
	Progress func() experiment.ProgressSnapshot
	Series   func() SeriesView
	Manifest func() Manifest
}

// WriteMetrics renders the fleet /metrics view: the campaign-level
// progress families, then fleet rollups and per-shard families carrying
// a shard label.
func WriteMetrics(w io.Writer, prog experiment.ProgressSnapshot, sv ShardsView) error {
	if err := prog.WriteProm(w); err != nil {
		return err
	}
	var done, success, cursor, frames, age, state []obs.PromSample
	for _, s := range sv.Shards {
		id := strconv.Itoa(s.ID)
		done = append(done, obs.PromInt(s.Done, "shard", id))
		success = append(success, obs.PromInt(s.Success, "shard", id))
		cursor = append(cursor, obs.PromInt(int64(s.Cursor), "shard", id))
		frames = append(frames, obs.PromInt(int64(s.Frames), "shard", id))
		if s.Frames > 0 {
			age = append(age, obs.PromFloat(s.LastFrameAgeSec, "shard", id))
		}
		state = append(state, obs.PromInt(1, "shard", id, "state", s.State))
	}
	for _, f := range []struct {
		name, help string
		samples    []obs.PromSample
	}{
		{"fleet_shards", "Shards in the campaign plan.", []obs.PromSample{obs.PromInt(int64(len(sv.Shards)))}},
		{"fleet_shards_done", "Shards that completed their job range.", []obs.PromSample{obs.PromInt(int64(sv.ShardsDone))}},
		{"shard_done", "Trials completed per shard.", done},
		{"shard_success", "Successful trials per shard.", success},
		{"shard_cursor", "Absolute next-job cursor per shard.", cursor},
		{"shard_frames", "Checkpoint frames journaled per shard.", frames},
		{"shard_last_frame_age_seconds", "Seconds since the shard last journaled a frame.", age},
		{"shard_state", "Shard state machine (1 = current state).", state},
	} {
		if err := obs.WriteFamily(w, f.name, "gauge", f.help, f.samples...); err != nil {
			return err
		}
	}
	return nil
}

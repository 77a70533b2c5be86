package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intango/internal/experiment"
)

// goldenScale is the kill/resume campaign shape: small enough that the
// full cube runs in a couple of seconds, large enough that every shard
// journals several frames before finishing.
func goldenScale() experiment.Scale { return experiment.Scale{VPs: 2, Servers: 2, Trials: 1} }

const goldenSeed = 42

// serialDoc produces the deterministic result artifact from a plain
// single-worker RunTable1Parallel — the independent reference every
// fleet execution history must match byte for byte.
func serialDoc(t *testing.T) []byte {
	t.Helper()
	sc := goldenScale()
	r := experiment.NewRunner(goldenSeed)
	r.Workers = 1
	r.Obs = experiment.NewObsSink()
	rows := experiment.RunTable1Parallel(r, sc)
	var tallies []experiment.Tally
	for _, row := range rows {
		tallies = append(tallies, row.Sensitive, row.Clean)
	}
	res := &Result{
		Plan:     Plan{Campaign: "table1", Seed: goldenSeed, Scale: sc},
		Rows:     rows,
		Tallies:  tallies,
		Snapshot: r.Obs.Snapshot(),
		Trials:   r.Obs.Trials(),
		Failures: refsFromTraces(r.Obs.Failures()),
	}
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// fleetDoc runs a fleet campaign and serializes its deterministic
// artifact.
func fleetDoc(t *testing.T, opts Options) ([]byte, *Result) {
	t.Helper()
	res := runFleet(t, opts)
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), res
}

func runFleet(t *testing.T, opts Options) *Result {
	t.Helper()
	c, err := New(experiment.NewRunner(goldenSeed), goldenScale(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readGolden loads testdata/fleet.golden. Setting UPDATE_FLEET_GOLDEN
// rewrites it from the serial reference first (a deliberate act after
// a substrate change, the same discipline as the table goldens).
func readGolden(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join("testdata", "fleet.golden")
	if os.Getenv("UPDATE_FLEET_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, serialDoc(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestPlanShards(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		sizes    []int
	}{
		{10, 3, []int{4, 3, 3}},
		{6, 3, []int{2, 2, 2}},
		{3, 8, []int{1, 1, 1}}, // clamped to total
		{5, 1, []int{5}},
		{7, 0, []int{7}}, // clamped up to 1
		{0, 4, []int{0}},
	} {
		plan := PlanShards(tc.total, tc.n)
		if len(plan) != len(tc.sizes) {
			t.Fatalf("PlanShards(%d,%d) = %d shards, want %d", tc.total, tc.n, len(plan), len(tc.sizes))
		}
		next := 0
		for i, p := range plan {
			if p.ID != i || p.JobStart != next || p.Jobs() != tc.sizes[i] {
				t.Fatalf("PlanShards(%d,%d)[%d] = %+v, want start %d size %d", tc.total, tc.n, i, p, next, tc.sizes[i])
			}
			next = p.JobEnd
		}
		if next != tc.total {
			t.Fatalf("PlanShards(%d,%d) covers %d jobs", tc.total, tc.n, next)
		}
	}
}

// TestFleetMatchesSerialGolden: the golden is the serial reference, and
// an uninterrupted sharded fleet — any shard/proc split — reproduces it
// byte for byte, checkpointing included.
func TestFleetMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	want := readGolden(t)
	if got := serialDoc(t); !bytes.Equal(got, want) {
		t.Fatalf("serial reference drifted from golden:\ngot:\n%s", got)
	}
	doc, res := fleetDoc(t, Options{Shards: 4, Procs: 3, Dir: t.TempDir(), CheckpointEvery: 5})
	if !bytes.Equal(doc, want) {
		t.Errorf("uninterrupted fleet diverged from serial golden:\ngot:\n%s\nwant:\n%s", doc, want)
	}
	if res.Resume != (experiment.ResumeHealth{}) {
		t.Errorf("fresh fleet reports resume state: %+v", res.Resume)
	}
	if len(res.Shards) != 4 {
		t.Fatalf("fleet ran %d shards, want 4", len(res.Shards))
	}
	for _, s := range res.Shards {
		if s.State != StateDone || s.Cursor != s.JobEnd || s.Frames == 0 {
			t.Errorf("shard %d finished in state %+v", s.ID, s)
		}
	}
}

// killFleet starts a checkpointing fleet and stops it via the OnFrame
// hook after `after` journaled frames — the in-process stand-in for
// kill -9 at a frame boundary. It returns only after Run has unwound.
func killFleet(t *testing.T, dir string, after int) {
	t.Helper()
	c, err := New(experiment.NewRunner(goldenSeed), goldenScale(), Options{
		Shards: 4, Procs: 2, Dir: dir, CheckpointEvery: 5,
		OnFrame: func(_, total int) error {
			if total >= after {
				return errors.New("kill drill")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("killed fleet returned %v, want ErrStopped", err)
	}
}

// TestFleetKillResumeBitIdentical is the tentpole acceptance test: a
// campaign killed mid-run and resumed from its checkpoint directory
// produces merged rows, tallies, obs snapshot, and failure refs
// byte-identical to the uninterrupted serial golden.
func TestFleetKillResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	want := readGolden(t)
	dir := t.TempDir()
	killFleet(t, dir, 3)

	// The journals hold partial frames; a fresh coordinator over the
	// same dir must skip/restore and finish.
	doc, res := fleetDoc(t, Options{Shards: 4, Procs: 2, Dir: dir, CheckpointEvery: 5})
	if !bytes.Equal(doc, want) {
		t.Errorf("kill+resume diverged from serial golden:\ngot:\n%s\nwant:\n%s", doc, want)
	}
	if res.Resume.ResumedShards+res.Resume.CompletedShards == 0 {
		t.Error("resumed fleet restored nothing — the kill drill journaled no frames?")
	}
	if res.Resume.ReplayedTrials < 5 {
		t.Errorf("resumed fleet replayed %d trials, want >= one checkpoint interval", res.Resume.ReplayedTrials)
	}
	resumed := 0
	for _, s := range res.Shards {
		if s.Resumed {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("no shard carries the Resumed mark")
	}
}

// TestFleetDoubleKillResume survives two successive kills at different
// frame counts before completing — checkpoint cursors stay exact across
// repeated restore/re-journal cycles.
func TestFleetDoubleKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	want := readGolden(t)
	dir := t.TempDir()
	killFleet(t, dir, 2)
	killFleet(t, dir, 3)
	doc, _ := fleetDoc(t, Options{Shards: 4, Procs: 2, Dir: dir, CheckpointEvery: 5})
	if !bytes.Equal(doc, want) {
		t.Errorf("double kill+resume diverged from serial golden:\ngot:\n%s", doc)
	}
}

// TestFleetQuarantineDamagedJournal: malformed lines — torn tails,
// garbage, frames with the wrong version — are quarantined, the shard
// resumes from its last good frame (or from scratch), and the merged
// result still matches the golden byte for byte.
func TestFleetQuarantineDamagedJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	want := readGolden(t)
	dir := t.TempDir()
	killFleet(t, dir, 3)

	journals, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt.jsonl"))
	if err != nil || len(journals) == 0 {
		t.Fatalf("no journals after kill drill (err=%v)", err)
	}
	// Damage every journal three ways: a garbage line, a structurally
	// valid frame with an unknown version, and a torn tail (no newline,
	// truncated JSON — the shape a real SIGKILL mid-write leaves).
	for _, j := range journals {
		f, err := os.OpenFile(j, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString("{this is not json\n")
		f.WriteString(`{"version":99,"campaign":"table1","shard":0,"cursor":0,"tallies":[],"obs":{"counters":{}},"series":{"points":[]}}` + "\n")
		f.WriteString(`{"version":1,"campaign":"table1","shard":`)
		f.Close()
	}

	doc, res := fleetDoc(t, Options{Shards: 4, Procs: 2, Dir: dir, CheckpointEvery: 5})
	if !bytes.Equal(doc, want) {
		t.Errorf("quarantined resume diverged from serial golden:\ngot:\n%s", doc)
	}
	if res.Resume.QuarantinedFrames < 3*len(journals) {
		t.Errorf("quarantined %d frames, want >= %d", res.Resume.QuarantinedFrames, 3*len(journals))
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.quarantined"))
	if len(quarantined) != len(journals) {
		t.Errorf("%d quarantined journals retained, want %d", len(quarantined), len(journals))
	}
}

// TestFleetWholeJournalGarbage: a journal with no salvageable frame at
// all re-runs the shard from scratch — no crash, same bytes.
func TestFleetWholeJournalGarbage(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	want := readGolden(t)
	dir := t.TempDir()
	killFleet(t, dir, 3)
	journals, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt.jsonl"))
	if len(journals) == 0 {
		t.Fatal("no journals after kill drill")
	}
	if err := os.WriteFile(journals[0], []byte("total garbage\nmore garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, res := fleetDoc(t, Options{Shards: 4, Procs: 2, Dir: dir, CheckpointEvery: 5})
	if !bytes.Equal(doc, want) {
		t.Errorf("garbage-journal resume diverged from serial golden:\ngot:\n%s", doc)
	}
	if res.Resume.QuarantinedFrames == 0 {
		t.Error("no quarantined frames reported")
	}
}

// TestFleetManifestMismatch: a checkpoint dir from a different campaign
// (here: another seed) is refused, not silently blended.
func TestFleetManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(experiment.NewRunner(goldenSeed), goldenScale(), Options{Shards: 2, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := New(experiment.NewRunner(goldenSeed+1), goldenScale(), Options{Shards: 2, Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("mismatched manifest accepted (err=%v)", err)
	}
	// Same inputs must still be welcome.
	if _, err := New(experiment.NewRunner(goldenSeed), goldenScale(), Options{Shards: 2, Dir: dir}); err != nil {
		t.Fatalf("matching manifest refused: %v", err)
	}
}

// TestFrameSeriesTerminalSample: every checkpoint frame's series ends
// with a sample cut at that frame — the invariant that keeps resumed
// /timeseries curves gap-free at the kill point — and a resumed shard's
// curve continues monotonically from the restored points.
func TestFrameSeriesTerminalSample(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	dir := t.TempDir()
	killFleet(t, dir, 3)
	journals, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt.jsonl"))
	if len(journals) == 0 {
		t.Fatal("no journals after kill drill")
	}
	checked := 0
	for _, j := range journals {
		id := 0
		if _, err := fmt.Sscanf(filepath.Base(j), "shard-%04d.ckpt.jsonl", &id); err != nil {
			t.Fatal(err)
		}
		last, frames, quarantined, err := journalLoad(dir, "table1", id, 0, 1<<30)
		if err != nil || quarantined != 0 {
			t.Fatalf("journal %s: err=%v quarantined=%d", j, err, quarantined)
		}
		if frames == 0 {
			continue
		}
		pts := last.Series.Points
		if len(pts) < frames {
			t.Errorf("shard %d: %d frames but only %d series points — frames missing their terminal sample", id, frames, len(pts))
		}
		lastPt := last.Series.Last()
		if got, want := lastPt.Values["done"], float64(last.Cursor-shardJobStart(dir, id)); got != want {
			// done is cumulative per shard; the terminal sample must sit
			// exactly at the frame's cut.
			t.Errorf("shard %d: terminal sample done=%v, frame covers %v trials", id, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no journaled frames to check")
	}

	// Resume and re-kill immediately: the next frame's series must
	// extend the restored curve (timestamps strictly non-decreasing).
	killFleet(t, dir, 1)
	for _, j := range journals {
		id := 0
		fmt.Sscanf(filepath.Base(j), "shard-%04d.ckpt.jsonl", &id)
		last, frames, _, err := journalLoad(dir, "table1", id, 0, 1<<30)
		if err != nil || frames == 0 {
			continue
		}
		prev := -1.0
		for _, p := range last.Series.Points {
			if p.T < prev {
				t.Errorf("shard %d: series time went backwards across resume (%v after %v)", id, p.T, prev)
			}
			prev = p.T
		}
	}
}

// shardJobStart recovers the shard's plan start for the frame check.
func shardJobStart(dir string, id int) int {
	m, ok, err := loadManifest(dir)
	if err != nil || !ok {
		return 0
	}
	for _, p := range m.Shards {
		if p.ID == id {
			return p.JobStart
		}
	}
	return 0
}

// TestFleetHealthSections: the merged result's health report carries
// the shard table and — after a resume — the resume summary, and both
// render in the text digest.
func TestFleetHealthSections(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	dir := t.TempDir()
	killFleet(t, dir, 3)
	_, res := fleetDoc(t, Options{Shards: 4, Procs: 2, Dir: dir, CheckpointEvery: 5})
	h := res.Health("fleet-test", 2, 0)
	if len(h.Shards) != 4 {
		t.Fatalf("health carries %d shards, want 4", len(h.Shards))
	}
	if h.Resume == nil || h.Resume.ReplayedTrials == 0 {
		t.Fatalf("health resume section = %+v", h.Resume)
	}
	if h.Trials != res.Trials || h.Success+h.Failure1+h.Failure2 != int64(res.Trials) {
		t.Fatalf("health counts inconsistent: %+v vs %d trials", h, res.Trials)
	}
	text := experiment.FormatHealth(h)
	for _, wantStr := range []string{"shards:", "resume:", "trials recovered from checkpoints"} {
		if !strings.Contains(text, wantStr) {
			t.Errorf("health text missing %q:\n%s", wantStr, text)
		}
	}
}

// TestManifestProvenance: the manifest canonicalizes strategy, censor,
// and topo specs and survives a round trip through the checkpoint dir.
func TestManifestProvenance(t *testing.T) {
	r := experiment.NewRunner(goldenSeed)
	r.Censor = "turkmenistan"
	dir := t.TempDir()
	c, err := New(r, goldenScale(), Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Manifest()
	if m.Campaign != "table1" || m.Seed != goldenSeed || m.TotalJobs == 0 {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Strategies) == 0 || m.Strategies[0].Spec == "" {
		t.Fatalf("manifest strategies = %+v", m.Strategies)
	}
	if m.Censor == "" || m.Censor == "turkmenistan" {
		t.Fatalf("manifest censor %q not canonicalized spec text", m.Censor)
	}
	loaded, ok, err := loadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest not persisted: ok=%v err=%v", ok, err)
	}
	if loaded.fingerprint() != m.fingerprint() {
		t.Fatal("persisted manifest fingerprint differs")
	}
	if loaded.Started == "" {
		t.Fatal("manifest missing start time")
	}
}

// TestWriteMetricsGolden pins the fleet /metrics body byte for byte
// against the exposition captured before obs.WriteFamily took over:
// the campaign families, the rollups, a frameless shard with no age
// sample, and an escaped state label.
func TestWriteMetricsGolden(t *testing.T) {
	prog := experiment.ProgressSnapshot{
		Done: 1234567, Total: 2000000, TrialsPerSec: 2.5e6, ETASeconds: 0.30927,
		Success: 1000000, Failure1: 200000, Failure2: 34567,
		Strategies: []experiment.StrategyProgress{
			{Strategy: "a", Done: 2, Success: 1},
			{Strategy: `q"uo\te` + "\nπ", Done: 1},
			{Strategy: "on:first-payload[teardown(flags=rst,disc=ttl)]", Done: 5, Success: 5},
		},
	}
	sv := ShardsView{
		Campaign: "table1", Total: 40, Done: 13, ShardsDone: 1,
		Shards: []ShardStatus{
			{ID: 0, State: "done", JobStart: 0, JobEnd: 10, Cursor: 10, Done: 10, Success: 7, Frames: 2, LastFrameAgeSec: 1.5e7},
			{ID: 1, State: "running", JobStart: 10, JobEnd: 20, Cursor: 13, Done: 3, Success: 2, Frames: 1, LastFrameAgeSec: 0.125, Resumed: true},
			{ID: 12, State: `fa"il` + "\\", JobStart: 20, JobEnd: 40, Cursor: 20},
		},
	}
	var b strings.Builder
	if err := WriteMetrics(&b, prog, sv); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fleet.metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("fleet metrics drifted from the golden:\n%s", b.String())
	}
}

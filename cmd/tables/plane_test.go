package main

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"intango/internal/device/uis"
	"intango/internal/experiment"
	"intango/internal/fleet"
	"intango/internal/intangd"
	"intango/internal/obs"
	"intango/internal/packet"
	"intango/internal/plane"
)

func listen(t *testing.T) *plane.Plane {
	t.Helper()
	pl, err := plane.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close() })
	return pl
}

func scrape(t *testing.T, pl *plane.Plane, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + pl.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

func getJSON(t *testing.T, pl *plane.Plane, path string, into any) {
	t.Helper()
	resp, err := http.Get("http://" + pl.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s content type %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
}

// TestCampaignPlane drives the campaign views against fixed feeds.
func TestCampaignPlane(t *testing.T) {
	snap := experiment.ProgressSnapshot{
		Done: 3, Total: 4, Success: 2, Failure2: 1,
		Strategies: []experiment.StrategyProgress{
			{Strategy: "a", Done: 2, Success: 1},
			{Strategy: `q"uo\te` + "\n", Done: 1},
		},
	}
	series := obs.TimeSeriesSnapshot{Points: []obs.SeriesPoint{
		{T: 0, Values: map[string]float64{"done": 0}},
		{T: 0.5, Values: map[string]float64{"done": 3}},
	}}
	pl := listen(t)
	mountCampaign(pl,
		func() experiment.ProgressSnapshot { return snap },
		func() obs.TimeSeriesSnapshot { return series })

	var got experiment.ProgressSnapshot
	getJSON(t, pl, "/progress", &got)
	if got.Done != 3 || got.Total != 4 {
		t.Fatalf("/progress = %+v", got)
	}
	text := scrape(t, pl, "/metrics")
	for _, want := range []string{
		"# TYPE trials_done gauge",
		"trials_done 3",
		"trials_total 4",
		`strategy_success{strategy="a"} 1`,
		`strategy_done{strategy="q\"uo\\te\n"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	var ts obs.TimeSeriesSnapshot
	getJSON(t, pl, "/timeseries", &ts)
	if len(ts.Points) != 2 || ts.Points[1].Values["done"] != 3 {
		t.Fatalf("/timeseries = %+v", ts)
	}
}

// TestBindPlaneFailure: an unusable -progress address degrades to a
// diagnostic and no plane; "stderr" asks for no plane at all.
func TestBindPlaneFailure(t *testing.T) {
	var buf strings.Builder
	if pl := bindPlane("256.0.0.1:0", &buf); pl != nil {
		pl.Close()
		t.Fatal("bind to a bogus address succeeded")
	}
	if !strings.Contains(buf.String(), "unavailable") {
		t.Fatalf("missing diagnostic, got %q", buf.String())
	}
	buf.Reset()
	if pl := bindPlane("stderr", &buf); pl != nil || buf.Len() != 0 {
		t.Fatalf("-progress stderr bound a plane or complained: %q", buf.String())
	}
	mountCampaign(nil, nil, nil) // a failed bind mounts nothing
	mountFleet(nil, fleet.Feeds{})
}

// TestCampaignEndpointWiring: a plane mounted on a runner's feeds
// serves that runner's campaign, and keeps its closing counts after
// the campaign ends.
func TestCampaignEndpointWiring(t *testing.T) {
	r := experiment.NewRunner(42)
	r.Workers = 2
	r.Progress = &experiment.ProgressOptions{Interval: time.Hour}
	pl := listen(t)
	mountCampaign(pl, r.LiveProgress, r.ProgressSeries)
	experiment.RunTable1Parallel(r, experiment.Scale{VPs: 1, Servers: 1, Trials: 1})
	var got experiment.ProgressSnapshot
	getJSON(t, pl, "/progress", &got)
	if got.Total == 0 || got.Done != got.Total {
		t.Fatalf("/progress after the campaign = %+v", got)
	}
}

// TestTimeseriesMidCampaign scrapes /timeseries while a campaign is
// still running, and requires the sampler to have produced at least
// the baseline plus one more sample by the end.
func TestTimeseriesMidCampaign(t *testing.T) {
	r := experiment.NewRunner(7)
	r.Workers = 1
	r.Progress = &experiment.ProgressOptions{Interval: time.Millisecond}
	pl := listen(t)
	mountCampaign(pl, r.LiveProgress, r.ProgressSeries)

	done := make(chan struct{})
	go func() {
		defer close(done)
		experiment.RunTable1Parallel(r, experiment.Scale{VPs: 1, Servers: 1, Trials: 2})
	}()
	var ts obs.TimeSeriesSnapshot
	for running := true; running && len(ts.Points) < 2; {
		select {
		case <-done:
			running = false
		default:
		}
		getJSON(t, pl, "/timeseries", &ts)
		time.Sleep(time.Millisecond)
	}
	<-done
	if len(ts.Points) < 2 {
		// The campaign outran the scraper; the plane still serves its
		// retained baseline and closing samples.
		getJSON(t, pl, "/timeseries", &ts)
	}
	if len(ts.Points) < 2 {
		t.Fatalf("timeseries has %d points, want >= 2", len(ts.Points))
	}
	if ts.Points[0].T > ts.Points[len(ts.Points)-1].T {
		t.Fatal("timeseries not in time order")
	}
	if _, ok := ts.Points[0].Values["done"]; !ok {
		t.Fatalf("sample missing done value: %+v", ts.Points[0])
	}
}

// TestFleetPlane drives the fleet views against fixed feeds: /shards,
// /progress, /metrics (shard labels plus fleet rollups), /timeseries
// (stitched per-shard curves) and /manifest.
func TestFleetPlane(t *testing.T) {
	feeds := fleet.Feeds{
		Shards: func() fleet.ShardsView {
			return fleet.ShardsView{
				Campaign: "table1", Total: 40, Done: 13, ShardsDone: 1,
				Shards: []fleet.ShardStatus{
					{ID: 0, State: "done", JobStart: 0, JobEnd: 10, Cursor: 10, Done: 10, Success: 7, Frames: 2},
					{ID: 1, State: "running", JobStart: 10, JobEnd: 20, Cursor: 13, Done: 3, Success: 2, Frames: 1, LastFrameAgeSec: 0.5, Resumed: true},
				},
			}
		},
		Progress: func() experiment.ProgressSnapshot {
			return experiment.ProgressSnapshot{Done: 13, Total: 40, Success: 9}
		},
		Series: func() fleet.SeriesView {
			return fleet.SeriesView{
				Fleet: obs.TimeSeriesSnapshot{Points: []obs.SeriesPoint{{T: 0, Values: map[string]float64{"done": 0}}}},
				Shards: map[string]obs.TimeSeriesSnapshot{
					"0": {Points: []obs.SeriesPoint{{T: 0.1, Values: map[string]float64{"done": 10}}}},
				},
			}
		},
		Manifest: func() fleet.Manifest {
			return fleet.Manifest{Version: 1, Campaign: "table1", Seed: 42, TotalJobs: 40}
		},
	}
	pl := listen(t)
	mountFleet(pl, feeds)

	var sv fleet.ShardsView
	getJSON(t, pl, "/shards", &sv)
	if len(sv.Shards) != 2 || sv.Shards[1].State != "running" || !sv.Shards[1].Resumed {
		t.Fatalf("/shards = %+v", sv)
	}
	var prog experiment.ProgressSnapshot
	getJSON(t, pl, "/progress", &prog)
	if prog.Done != 13 || prog.Total != 40 {
		t.Fatalf("/progress = %+v", prog)
	}
	var series fleet.SeriesView
	getJSON(t, pl, "/timeseries", &series)
	if len(series.Shards["0"].Points) != 1 {
		t.Fatalf("/timeseries = %+v", series)
	}
	var man fleet.Manifest
	getJSON(t, pl, "/manifest", &man)
	if man.Campaign != "table1" || man.Seed != 42 {
		t.Fatalf("/manifest = %+v", man)
	}
	text := scrape(t, pl, "/metrics")
	for _, want := range []string{"trials_done 13", "fleet_shards 2", `shard_done{shard="1"} 3`, `shard_state{shard="1",state="running"} 1`} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestFleetPlaneLiveCampaign: a real coordinator's feeds mounted on a
// plane serve shard labels mid-campaign, scraped from the OnFrame hook.
func TestFleetPlaneLiveCampaign(t *testing.T) {
	r := experiment.NewRunner(42)
	pl := listen(t)
	scraped := make(chan string, 1)
	opts := fleet.Options{
		Shards: 2, Procs: 1, CheckpointEvery: 8,
		OnFrame: func(_, total int) error {
			if total == 1 {
				resp, err := http.Get("http://" + pl.Addr() + "/metrics")
				if err != nil {
					t.Errorf("mid-campaign scrape: %v", err)
					return nil
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				select {
				case scraped <- string(body):
				default:
				}
			}
			return nil
		},
	}
	coord, err := fleet.New(r, experiment.Scale{VPs: 1, Servers: 1, Trials: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	mountFleet(pl, coord.Feeds())
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 {
		t.Fatal("campaign ran no trials")
	}
	select {
	case text := <-scraped:
		for _, want := range []string{"fleet_shards 2", `shard_cursor{shard="0"}`, "# TYPE shard_done gauge", "trials_total"} {
			if !strings.Contains(text, want) {
				t.Errorf("live /metrics missing %q:\n%s", want, text)
			}
		}
	default:
		t.Fatal("no mid-campaign scrape happened")
	}
}

// TestFleetPlaneConcurrentScrapeShutdown hammers every fleet endpoint
// from several goroutines while the campaign runs to completion and the
// plane is closed under them — the race detector's view of the
// scrape/shutdown window. Requests failing after the close are fine;
// data races and panics are not.
func TestFleetPlaneConcurrentScrapeShutdown(t *testing.T) {
	r := experiment.NewRunner(7)
	coord, err := fleet.New(r, experiment.Scale{VPs: 1, Servers: 2, Trials: 1}, fleet.Options{
		Shards: 3, Procs: 2, CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plane.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mountFleet(pl, coord.Feeds())
	addr := pl.Addr()
	closed := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/shards", "/progress", "/metrics", "/timeseries", "/manifest", "/healthz"} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for {
					select {
					case <-closed:
						return
					default:
					}
					resp, err := http.Get("http://" + addr + p)
					if err != nil {
						return // plane closed mid-scrape: expected
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(path)
		}
	}
	if _, err := coord.Run(); err != nil {
		t.Errorf("fleet run: %v", err)
	}
	pl.Close()
	close(closed)
	wg.Wait()
}

var (
	promName      = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelName = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// checkExposition holds a /metrics body to the text exposition format:
// legal metric and label names, exactly one # TYPE line per family
// (after its # HELP), every sample inside its family's contiguous
// block, label values escaped exactly as obs.PromLabel escapes them,
// and parseable values. It returns the family count.
func checkExposition(t *testing.T, plane, body string) int {
	t.Helper()
	typed := map[string]string{}
	family, help := "", ""
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fail := func(why string) { t.Fatalf("%s /metrics line %d %q: %s", plane, n+1, line, why) }
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help = strings.Fields(line)[2]
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				fail("malformed TYPE line")
			}
			if _, dup := typed[f[2]]; dup {
				fail("second TYPE line for the family")
			}
			if f[2] != help {
				fail("TYPE without its HELP")
			}
			family = f[2]
			typed[family] = f[3]
		case strings.HasPrefix(line, "#") || line == "":
			fail("stray line")
		default:
			name, rest := line, ""
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name, rest = line[:i], line[i:]
			}
			if !promName.MatchString(name) {
				fail("illegal metric name")
			}
			base := name
			if typed[family] == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					base = strings.TrimSuffix(base, suf)
					if base != name {
						break
					}
				}
			}
			if base != family {
				fail("sample outside its family's block (family " + family + ")")
			}
			if strings.HasPrefix(rest, "{") {
				end := checkLabels(rest, fail)
				rest = rest[end:]
			}
			if !strings.HasPrefix(rest, " ") {
				fail("no value")
			}
			if _, err := strconv.ParseFloat(rest[1:], 64); err != nil {
				fail("unparseable value")
			}
		}
	}
	return len(typed)
}

// checkLabels validates a "{k="v",...}" block at the start of s and
// returns the index just past it.
func checkLabels(s string, fail func(string)) int {
	i := 1
	for {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || !promLabelName.MatchString(s[i:i+eq]) || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			fail("malformed label")
		}
		i += eq + 2
		var raw, val strings.Builder
		for ; i < len(s) && s[i] != '"'; i++ {
			raw.WriteByte(s[i])
			if s[i] != '\\' {
				val.WriteByte(s[i])
				continue
			}
			i++
			if i == len(s) {
				fail("dangling escape")
			}
			raw.WriteByte(s[i])
			switch s[i] {
			case '\\', '"':
				val.WriteByte(s[i])
			case 'n':
				val.WriteByte('\n')
			default:
				fail("illegal escape")
			}
		}
		if i == len(s) {
			fail("unterminated label value")
		}
		if obs.PromLabel(val.String()) != raw.String() {
			fail("label value not escaped as obs.PromLabel escapes it")
		}
		i++ // closing quote
		switch {
		case i < len(s) && s[i] == ',':
			i++
		case i < len(s) && s[i] == '}':
			return i + 1
		default:
			fail("unterminated label block")
		}
	}
}

// TestMetricsConformance scrapes /metrics and /healthz from all three
// planes — intangd after a live fetch, a finished campaign, and a
// finished fleet — plus a campaign plane whose strategy labels carry raw
// spec text with quotes, backslashes, newlines, a tab and UTF-8 (the
// tab and UTF-8 must pass through raw, where Go's %q would escape them),
// and holds each body to the exposition format.
func TestMetricsConformance(t *testing.T) {
	planes := map[string]*plane.Plane{}

	p, err := intangd.New(intangd.Config{
		Censor: "tcb:evolved detect:keywords(ultrasurf) react:reset(type1) param:miss(p=0)",
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli := uis.New(p.ClientDevice(), uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  1,
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	defer p.Close()
	defer cli.Close()
	hc := &http.Client{
		Transport: &http.Transport{DialContext: cli.DialContext, DisableKeepAlives: true},
		Timeout:   15 * time.Second,
	}
	resp, err := hc.Get("http://origin.example/")
	if err != nil {
		t.Fatalf("fetch through intangd: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	planes["intangd"] = listen(t)
	p.Mount(planes["intangd"])

	r := experiment.NewRunner(42)
	r.Progress = &experiment.ProgressOptions{Interval: time.Hour}
	planes["campaign"] = listen(t)
	mountCampaign(planes["campaign"], r.LiveProgress, r.ProgressSeries)
	experiment.RunTable1Parallel(r, experiment.Scale{VPs: 1, Servers: 1, Trials: 1})

	coord, err := fleet.New(experiment.NewRunner(42), experiment.Scale{VPs: 1, Servers: 1, Trials: 1}, fleet.Options{Shards: 2, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	planes["fleet"] = listen(t)
	mountFleet(planes["fleet"], coord.Feeds())
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}

	odd := experiment.ProgressSnapshot{Strategies: []experiment.StrategyProgress{
		{Strategy: `on:first-payload[teardown(flags=rst,disc=ttl)]`, Done: 1},
		{Strategy: `q"uo\te` + "\nπ\tx", Done: 2},
	}}
	planes["spec-labels"] = listen(t)
	mountCampaign(planes["spec-labels"],
		func() experiment.ProgressSnapshot { return odd },
		func() obs.TimeSeriesSnapshot { return obs.TimeSeriesSnapshot{} })

	for name, pl := range planes {
		if body := scrape(t, pl, "/healthz"); body != "ok\n" {
			t.Errorf("%s /healthz = %q", name, body)
		}
		body := scrape(t, pl, "/metrics")
		if n := checkExposition(t, name, body); n < 5 {
			t.Errorf("%s /metrics has only %d families:\n%s", name, n, body)
		}
	}
	if body := scrape(t, planes["intangd"], "/metrics"); !strings.Contains(body, "intangd_netem_send_total ") {
		t.Errorf("intangd /metrics lacks the path counters:\n%s", body)
	}
	if body := scrape(t, planes["fleet"], "/metrics"); !strings.Contains(body, `shard_state{shard="1",state="done"} 1`) {
		t.Errorf("fleet /metrics lacks the shard state machine:\n%s", body)
	}
}

package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// TestBenchReportLayers round-trips a report's layers block through
// JSON and checks both renderings list every layer, including against
// an older report that has none.
func TestBenchReportLayers(t *testing.T) {
	rep := BenchReport{Layers: map[string]BenchResult{
		"SimulatorEvents": {NsPerOp: 30, AllocsPerOp: 0},
		"PacketParse":     {NsPerOp: 450, AllocsPerOp: 3},
	}}
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Layers["PacketParse"] != rep.Layers["PacketParse"] {
		t.Fatalf("layers after round trip: %+v", back.Layers)
	}
	for name, out := range map[string]string{
		"format":  FormatBenchReport(back),
		"compare": CompareBenchReports(BenchReport{}, back),
	} {
		parse, events := strings.Index(out, "PacketParse"), strings.Index(out, "SimulatorEvents")
		if parse < 0 || events < parse {
			t.Errorf("%s output lacks the layers in name order:\n%s", name, out)
		}
	}
}

// TestBenchReportTrialSplit round-trips the build/run split and checks
// both renderings show every arena regime, including against an older
// report that has none.
func TestBenchReportTrialSplit(t *testing.T) {
	rep := BenchReport{TrialSplit: map[string]BenchSplit{
		"fresh-arena":  {BuildUs: 21.5, RunUs: 48.25},
		"worker-arena": {BuildUs: 12.5, RunUs: 47.75},
	}}
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TrialSplit["worker-arena"] != rep.TrialSplit["worker-arena"] {
		t.Fatalf("trial split after round trip: %+v", back.TrialSplit)
	}
	for name, out := range map[string]string{
		"format":  FormatBenchReport(back),
		"compare": CompareBenchReports(BenchReport{}, back),
	} {
		fresh, worker := strings.Index(out, "split/fresh-arena"), strings.Index(out, "split/worker-arena")
		if fresh < 0 || worker < fresh || !strings.Contains(out, "12.5") || !strings.Contains(out, "47.8") {
			t.Errorf("%s output lacks the trial split:\n%s", name, out)
		}
	}
}

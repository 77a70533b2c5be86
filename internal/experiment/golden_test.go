package experiment

import (
	"bytes"
	"os"
	"testing"

	"intango/internal/core"
)

// TestTablesMatchGolden regenerates the Table 1, 4 and 5 and ablation
// byte streams (quick scale, seed 42 — what `cmd/tables -what
// 1|4|5|ablation` prints) and compares them against committed goldens.
// The table goldens were captured before the strategy layer was
// decomposed into spec-compiled primitives, the ablation golden while
// the §8 rungs were still config toggles on the calibrated GFW: the
// declarative specs reproduce both bit for bit.
func TestTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale campaigns")
	}
	for _, tc := range []struct {
		golden string
		write  func(w *bytes.Buffer)
	}{
		{"testdata/table1.golden", func(w *bytes.Buffer) { WriteTable1Campaign(w, NewRunner(42), QuickScale()) }},
		{"testdata/table4.golden", func(w *bytes.Buffer) { WriteTable4Campaign(w, NewRunner(42), QuickScale()) }},
		{"testdata/table5.golden", func(w *bytes.Buffer) { WriteTable5Campaign(w, NewRunner(42)) }},
		{"testdata/ablation.golden", func(w *bytes.Buffer) { WriteAblationCampaign(w, NewRunner(42)) }},
		{"testdata/goodput.golden", func(w *bytes.Buffer) {
			r := NewRunner(42)
			r.Obs = NewObsSink()
			WriteGoodputCampaign(w, r, QuickScale())
		}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		tc.write(&got)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("output drifted from %s:\ngot:\n%swant:\n%s", tc.golden, got.Bytes(), want)
		}
	}
}

// TestTableSpecsMatchRegistry checks every strategy a campaign job list
// carries: the spec text must parse and be canonical, and when its name
// is a registered alias, the inline spec must be the registered one —
// the tables and the registry may not silently diverge.
func TestTableSpecsMatchRegistry(t *testing.T) {
	var all []strategySpec
	for _, s := range table1Strategies() {
		all = append(all, s.strategySpec)
	}
	for _, s := range table4Strategies() {
		all = append(all, s.strategySpec)
	}
	for _, s := range table5Constructions() {
		all = append(all, s.strategySpec)
	}
	all = append(all, ablationStrategies()...)
	all = append(all, matrixStrategies()...)
	for _, s := range all {
		spec, err := core.ParseSpec(s.spec)
		if err != nil {
			t.Errorf("%s: bad spec %q: %v", s.name, s.spec, err)
			continue
		}
		if canon := spec.String(); canon != s.spec {
			t.Errorf("%s: spec %q is not canonical (want %q)", s.name, s.spec, canon)
		}
		_, registered, ok := core.ResolveStrategy(s.name)
		if !ok {
			// Not a registry alias (e.g. ad-hoc Table 5 constructions):
			// parseability is all we require.
			continue
		}
		if registered != spec.String() {
			t.Errorf("%s: table spec %q != registered spec %q", s.name, spec.String(), registered)
		}
	}
}

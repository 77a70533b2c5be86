package experiment

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"intango/internal/censor"
)

// TestAblationSpecsCanonical checks the §8 spec-edit ladder is well
// formed: each rung a canonical spec (round-trips through the grammar
// unchanged) with the detection-miss draw pinned off. The ladder's
// outcomes are pinned by testdata/ablation.golden.
func TestAblationSpecsCanonical(t *testing.T) {
	for _, s := range AblationCensorSpecs() {
		spec, err := censor.ParseCensor(s.Spec)
		if err != nil {
			t.Errorf("%s: bad spec %q: %v", s.Hardening, s.Spec, err)
			continue
		}
		if canon := spec.String(); canon != s.Spec {
			t.Errorf("%s: spec %q is not canonical (want %q)", s.Hardening, s.Spec, canon)
		}
		if !strings.Contains(s.Spec, "param:miss(p=0)") {
			t.Errorf("%s: spec %q does not pin the detection-miss draw off", s.Hardening, s.Spec)
		}
	}
}

// TestCensorsMatchGolden regenerates the censor-zoo reference dump —
// registry table, strategy × censor matrix, active-probing demo — and
// compares it against the committed golden (what `cmd/tables -what
// censors` prints at seed 42).
func TestCensorsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-censor matrix campaign")
	}
	want, err := os.ReadFile("testdata/censors.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	WriteCensorsCampaign(&got, NewRunner(42))
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from testdata/censors.golden:\ngot:\n%swant:\n%s", got.Bytes(), want)
	}
}

package netem

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// randDraws is how many values each equivalence check draws per seed:
// past two full laps of the 607-word register, so every word is read
// both as first materialised and as rewritten by the recurrence.
const randDraws = 1300

// checkRandMatches draws randDraws values from netem.NewRand(seed) and
// from math/rand seeded alike, through every Rand method campaigns use,
// and fails at the first difference.
func checkRandMatches(t *testing.T, seed int64) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < randDraws; i++ {
		var g, w uint64
		switch i % 5 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 2:
			g, w = uint64(got.Intn(1000+i)), uint64(want.Intn(1000+i))
		case 3:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		default:
			g, w = uint64(got.Int31n(7)), uint64(want.Int31n(7))
		}
		if g != w {
			t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
		}
	}
	gp, wp := got.Perm(50), want.Perm(50)
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("seed %d: Perm differs at %d: %v vs %v", seed, i, gp, wp)
		}
	}
	gs, ws := []byte("abcdefghijklmnopqrstuvwxyz"), []byte("abcdefghijklmnopqrstuvwxyz")
	got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	if !bytes.Equal(gs, ws) {
		t.Fatalf("seed %d: Shuffle gives %q, want %q", seed, gs, ws)
	}
}

func TestRandMatchesMathRand(t *testing.T) {
	edge := []int64{
		0, 1, -1, 2, 42, 89482311, -89482311,
		lehmerM, -lehmerM, 2 * lehmerM, -3 * lehmerM, lehmerM - 1, lehmerM + 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MinInt32, math.MaxInt32,
	}
	for _, seed := range edge {
		checkRandMatches(t, seed)
	}
	seeds := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		checkRandMatches(t, int64(seeds.Uint64()))
	}
}

// TestRandReseedMatchesMathRand reseeds one Rand in place, mid-stream,
// the way a reused trial arena does.
func TestRandReseedMatchesMathRand(t *testing.T) {
	got := NewRand(3)
	for _, seed := range []int64{11, 0, -5, math.MaxInt64, 11} {
		for i := 0; i < 1+int(seed&511); i++ {
			got.Uint64()
		}
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < randDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

func FuzzRandMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lehmerM, -lehmerM, math.MinInt64, math.MaxInt64, 0x9e3779b97f4a7c15 >> 1} {
		f.Add(seed)
	}
	f.Fuzz(checkRandMatches)
}

// TestNoOtherRandNewSource holds every seeded generator in non-test
// code to NewRand: a stray rand.NewSource would pay math/rand's
// O(register) seeding again. The init in rand.go is the one exception:
// it reads the library's output once to recover the whitening table.
func TestNoOtherRandNewSource(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	allowed := filepath.Join(root, "internal", "netem", "rand.go")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == allowed {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "rand" {
					rel, _ := filepath.Rel(root, path)
					t.Errorf("%s calls rand.NewSource; seed through netem.NewRand", rel)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

//go:build !race

package device

// raceEnabled reports whether the race detector is compiled in; the
// allocation-gate test skips under it (instrumentation allocates).
const raceEnabled = false

// Package dpi implements the deep-packet-inspection primitives the GFW
// model is built on: an Aho–Corasick multi-pattern keyword matcher (the
// rule-based detection engine of §2.1) and lightweight protocol
// classifiers for HTTP requests, DNS-over-TCP, Tor TLS handshakes, and
// OpenVPN-over-TCP.
package dpi

import (
	"slices"
	"sync"
)

// Matcher is an Aho–Corasick automaton over byte strings. Matching is
// case-insensitive (ASCII), since censorship keyword lists are.
type Matcher struct {
	// goto function: one dense 256-way row per node. Node 0 is the root.
	next [][256]int32
	fail []int32
	// out[i] holds the pattern indices that end at node i.
	out      [][]int
	patterns []string
}

func lower(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// NewMatcher builds an automaton for the given patterns. Empty patterns
// are ignored. Censor devices use SharedMatcher, which builds through
// here once per keyword list.
func NewMatcher(patterns []string) *Matcher {
	m := &Matcher{}
	m.addNode()
	for idx, p := range patterns {
		if p == "" {
			continue
		}
		m.patterns = append(m.patterns, p)
		node := int32(0)
		for i := 0; i < len(p); i++ {
			c := lower(p[i])
			if m.next[node][c] == 0 {
				m.next[node][c] = m.addNode()
			}
			node = m.next[node][c]
		}
		_ = idx
		m.out[node] = append(m.out[node], len(m.patterns)-1)
	}
	// BFS to build failure links and convert goto to a full transition
	// function.
	queue := make([]int32, 0, len(m.next))
	for c := 0; c < 256; c++ {
		if n := m.next[0][c]; n != 0 {
			m.fail[n] = 0
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			v := m.next[u][c]
			if v == 0 {
				m.next[u][c] = m.next[m.fail[u]][c]
				continue
			}
			m.fail[v] = m.next[m.fail[u]][c]
			m.out[v] = append(m.out[v], m.out[m.fail[v]]...)
			queue = append(queue, v)
		}
	}
	return m
}

// maxShared bounds the SharedMatcher memo. Campaigns use a handful of
// keyword lists; past this many distinct lists (a fuzzer, say) the
// automaton is built without caching so the memo cannot grow forever.
const maxShared = 16

// sharedEntry is one memoized automaton and the list it was built from.
type sharedEntry struct {
	patterns []string
	m        *Matcher
}

// shared is the SharedMatcher memo.
var shared struct {
	mu      sync.RWMutex
	entries []sharedEntry
}

// SharedMatcher returns the automaton for patterns, building it only the
// first time a given list is seen. The automaton is immutable once
// built and scan state lives in the caller (Contains/Scan locals or a
// StreamScanner), so every device, trial and goroutine using the same
// keyword list can share one.
func SharedMatcher(patterns []string) *Matcher {
	shared.mu.RLock()
	m := lookupShared(patterns)
	shared.mu.RUnlock()
	if m != nil {
		return m
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if m := lookupShared(patterns); m != nil {
		return m
	}
	m = NewMatcher(patterns)
	if len(shared.entries) < maxShared {
		shared.entries = append(shared.entries, sharedEntry{patterns: slices.Clone(patterns), m: m})
	}
	return m
}

// lookupShared finds patterns in the memo; the caller holds shared.mu.
func lookupShared(patterns []string) *Matcher {
	for _, e := range shared.entries {
		if slices.Equal(e.patterns, patterns) {
			return e.m
		}
	}
	return nil
}

func (m *Matcher) addNode() int32 {
	m.next = append(m.next, [256]int32{})
	m.fail = append(m.fail, 0)
	m.out = append(m.out, nil)
	return int32(len(m.next) - 1)
}

// Match is one pattern occurrence.
type Match struct {
	// Pattern is the matched pattern text.
	Pattern string
	// End is the byte offset just past the occurrence.
	End int
}

// Scan returns every pattern occurrence in data.
func (m *Matcher) Scan(data []byte) []Match {
	var matches []Match
	node := int32(0)
	for i := 0; i < len(data); i++ {
		node = m.next[node][lower(data[i])]
		for _, pi := range m.out[node] {
			matches = append(matches, Match{Pattern: m.patterns[pi], End: i + 1})
		}
	}
	return matches
}

// Contains reports whether any pattern occurs in data.
func (m *Matcher) Contains(data []byte) bool {
	node := int32(0)
	for i := 0; i < len(data); i++ {
		node = m.next[node][lower(data[i])]
		if len(m.out[node]) > 0 {
			return true
		}
	}
	return false
}

// Patterns returns the patterns the matcher was built with. The slice
// is the automaton's own (and may be shared); do not modify it.
func (m *Matcher) Patterns() []string { return m.patterns }

// StreamScanner runs a Matcher incrementally over a byte stream,
// carrying automaton state across chunk boundaries so keywords split
// between segments are still found — the property that distinguishes
// the paper's type-2 (reassembling) GFW devices from type-1 devices.
type StreamScanner struct {
	m    *Matcher
	node int32
	off  int
}

// NewStreamScanner returns a scanner for m starting at stream offset 0.
func (m *Matcher) NewStreamScanner() *StreamScanner {
	return &StreamScanner{m: m}
}

// Feed consumes the next chunk of the stream and returns any matches,
// with End offsets relative to the whole stream.
func (s *StreamScanner) Feed(chunk []byte) []Match {
	var matches []Match
	for i := 0; i < len(chunk); i++ {
		s.node = s.m.next[s.node][lower(chunk[i])]
		for _, pi := range s.m.out[s.node] {
			matches = append(matches, Match{Pattern: s.m.patterns[pi], End: s.off + i + 1})
		}
	}
	s.off += len(chunk)
	return matches
}

// Reset returns the scanner to the stream start.
func (s *StreamScanner) Reset() {
	s.node = 0
	s.off = 0
}

// Offset returns the number of stream bytes consumed.
func (s *StreamScanner) Offset() int { return s.off }

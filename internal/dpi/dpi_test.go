package dpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatcherBasic(t *testing.T) {
	m := NewMatcher([]string{"ultrasurf", "falun", "tor"})
	if !m.Contains([]byte("GET /?q=ultrasurf HTTP/1.1")) {
		t.Fatal("should match ultrasurf")
	}
	if m.Contains([]byte("GET /?q=innocent HTTP/1.1")) {
		t.Fatal("should not match")
	}
	got := m.Scan([]byte("tor and ultrasurf"))
	if len(got) != 2 || got[0].Pattern != "tor" || got[1].Pattern != "ultrasurf" {
		t.Fatalf("scan = %+v", got)
	}
	if got[0].End != 3 {
		t.Fatalf("End = %d", got[0].End)
	}
}

func TestMatcherCaseInsensitive(t *testing.T) {
	m := NewMatcher([]string{"UltraSurf"})
	if !m.Contains([]byte("ULTRASURF")) || !m.Contains([]byte("ultrasurf")) {
		t.Fatal("matching must be case-insensitive")
	}
}

func TestMatcherOverlappingPatterns(t *testing.T) {
	m := NewMatcher([]string{"he", "she", "hers"})
	got := m.Scan([]byte("ushers"))
	if len(got) != 3 {
		t.Fatalf("scan = %+v, want 3 matches", got)
	}
}

func TestMatcherEmptyAndNoPatterns(t *testing.T) {
	m := NewMatcher(nil)
	if m.Contains([]byte("anything")) {
		t.Fatal("empty matcher must match nothing")
	}
	m2 := NewMatcher([]string{"", "x"})
	if len(m2.Patterns()) != 1 {
		t.Fatal("empty pattern should be dropped")
	}
}

func TestMatcherAgainstNaiveSearch(t *testing.T) {
	patterns := []string{"abc", "bca", "aa", "cab"}
	m := NewMatcher(patterns)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n))
		for i := range data {
			data[i] = "abc"[rng.Intn(3)]
		}
		want := false
		for _, p := range patterns {
			if strings.Contains(string(data), p) {
				want = true
			}
		}
		return m.Contains(data) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamScannerAcrossChunks(t *testing.T) {
	m := NewMatcher([]string{"ultrasurf"})
	s := m.NewStreamScanner()
	if got := s.Feed([]byte("GET /?q=ultra")); len(got) != 0 {
		t.Fatalf("premature match: %+v", got)
	}
	got := s.Feed([]byte("surf HTTP/1.1"))
	if len(got) != 1 || got[0].End != len("GET /?q=ultrasurf") {
		t.Fatalf("split keyword: %+v", got)
	}
	s.Reset()
	if s.Offset() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClassifyHTTP(t *testing.T) {
	if p := ClassifyClientStream(80, []byte("GET / HTTP/1.1\r\n")); p != ProtoHTTP {
		t.Fatalf("got %v", p)
	}
	if p := ClassifyClientStream(80, []byte("POST /x HTTP/1.1\r\n")); p != ProtoHTTP {
		t.Fatalf("got %v", p)
	}
	if p := ClassifyClientStream(80, []byte("\x00\x01\x02")); p != ProtoUnknown {
		t.Fatalf("got %v", p)
	}
}

func TestParseHTTPRequest(t *testing.T) {
	req := []byte("GET /search?q=ultrasurf HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: x\r\n\r\n")
	info, ok := ParseHTTPRequest(req)
	if !ok {
		t.Fatal("parse failed")
	}
	if info.Method != "GET" || info.URI != "/search?q=ultrasurf" || info.Host != "www.example.com" {
		t.Fatalf("info = %+v", info)
	}
	if _, ok := ParseHTTPRequest([]byte("nonsense")); ok {
		t.Fatal("should not parse nonsense")
	}
	if _, ok := ParseHTTPRequest([]byte("GET /incomplete")); ok {
		t.Fatal("incomplete request line should not parse")
	}
}

// buildDNSQuery assembles a minimal DNS query message for name.
func buildDNSQuery(name string) []byte {
	var b []byte
	b = append(b, 0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0)
	for _, label := range strings.Split(name, ".") {
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	b = append(b, 0, 0, 1, 0, 1)
	return b
}

func TestDNSQueryNameExtraction(t *testing.T) {
	msg := buildDNSQuery("www.dropbox.com")
	if got, ok := DNSUDPQueryName(msg); !ok || got != "www.dropbox.com" {
		t.Fatalf("udp qname = %q ok=%v", got, ok)
	}
	tcp := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(tcp, uint16(len(msg)))
	copy(tcp[2:], msg)
	if got, ok := DNSTCPQueryName(tcp); !ok || got != "www.dropbox.com" {
		t.Fatalf("tcp qname = %q ok=%v", got, ok)
	}
	if _, ok := DNSTCPQueryName([]byte{0}); ok {
		t.Fatal("truncated stream should not parse")
	}
	if _, ok := DNSUDPQueryName(make([]byte, 12)); ok {
		t.Fatal("no-question message should not parse")
	}
}

func TestClassifyTorVsTLS(t *testing.T) {
	hello := []byte{tlsRecordHandshake, 3, 1, 0, 50, tlsClientHello}
	hello = append(hello, bytes.Repeat([]byte{0}, 20)...)
	if p := ClassifyClientStream(443, hello); p != ProtoTLS {
		t.Fatalf("plain TLS classified %v", p)
	}
	tor := append(append([]byte{}, hello...), TorCipherMarker...)
	if p := ClassifyClientStream(9001, tor); p != ProtoTor {
		t.Fatalf("tor hello classified %v", p)
	}
}

func TestClassifyOpenVPN(t *testing.T) {
	pkt := []byte{0x00, 0x20, 0x38}
	pkt = append(pkt, bytes.Repeat([]byte{0xaa}, 32)...)
	if p := ClassifyClientStream(1194, pkt); p != ProtoOpenVPN {
		t.Fatalf("openvpn classified %v", p)
	}
}

func TestClassifyDNSByPort(t *testing.T) {
	if p := ClassifyClientStream(53, []byte{0, 10}); p != ProtoDNSTCP {
		t.Fatalf("got %v", p)
	}
}

func TestProtocolStrings(t *testing.T) {
	for _, p := range []Protocol{ProtoUnknown, ProtoHTTP, ProtoDNSTCP, ProtoTLS, ProtoTor, ProtoOpenVPN} {
		if p.String() == "" {
			t.Fatal("empty protocol name")
		}
	}
}

func TestSharedMatcherMemoizes(t *testing.T) {
	a := SharedMatcher([]string{"ultrasurf", "falun"})
	b := SharedMatcher([]string{"ultrasurf", "falun"})
	if a != b {
		t.Fatal("equal keyword lists built two automata")
	}
	if c := SharedMatcher([]string{"falun", "ultrasurf"}); c == a {
		t.Fatal("a different keyword list shares the automaton")
	}
	if !a.Contains([]byte("GET /?q=UltraSurf")) {
		t.Fatal("shared matcher misses its keyword")
	}
}

func TestSharedMatcherCopiesKey(t *testing.T) {
	list := []string{"copied-key"}
	m := SharedMatcher(list)
	list[0] = "mutated"
	if SharedMatcher([]string{"copied-key"}) != m {
		t.Fatal("mutating the caller's slice changed the memo key")
	}
}

func TestSharedMatcherBounded(t *testing.T) {
	// Restore the memo afterwards so test order does not matter.
	saved := slices.Clone(shared.entries)
	defer func() { shared.entries = saved }()
	for i := 0; len(shared.entries) < maxShared; i++ {
		SharedMatcher([]string{"fill", strings.Repeat("x", i+1)})
	}
	fresh := []string{"never-cached-before"}
	if SharedMatcher(fresh) == SharedMatcher(fresh) {
		t.Fatal("memo cached a list past its bound")
	}
	if n := len(shared.entries); n != maxShared {
		t.Fatalf("memo holds %d entries, bound %d", n, maxShared)
	}
}

// TestSharedMatcherConcurrentScans scans one shared automaton from many
// goroutines, each with its own StreamScanner; run under -race it
// proves the automaton is read-only after construction.
func TestSharedMatcherConcurrentScans(t *testing.T) {
	keywords := []string{"ultrasurf", "freegate", "tiananmen"}
	stream := []byte("GET /search?q=freeg" + "ate&x=ultra" + "surf HTTP/1.1\r\n\r\n")
	done := make(chan error)
	const workers = 8
	for w := 0; w < workers; w++ {
		go func(w int) {
			m := SharedMatcher(keywords)
			for i := 0; i < 200; i++ {
				sc := m.NewStreamScanner()
				var got []string
				for off := 0; off < len(stream); off += 1 + (w+i)%7 {
					end := min(off+1+(w+i)%7, len(stream))
					for _, mt := range sc.Feed(stream[off:end]) {
						got = append(got, mt.Pattern)
					}
				}
				if strings.Join(got, ",") != "freegate,ultrasurf" || !m.Contains(stream) {
					done <- fmt.Errorf("worker %d: matches %v", w, got)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

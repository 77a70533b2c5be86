package plane_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"intango/internal/plane"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.Header.Get("Content-Type")
}

// TestPlaneHandlers: a fresh plane answers /healthz, and the JSON and
// metrics handlers set their content types and write what their feeds
// return.
func TestPlaneHandlers(t *testing.T) {
	pl, err := plane.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	base := "http://" + pl.Addr()
	if body, _ := get(t, base+"/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
	pl.Handle("/doc", plane.JSON(func() any { return map[string]int{"n": 3} }))
	pl.Handle("/metrics", plane.Metrics(func(w io.Writer) error {
		_, err := io.WriteString(w, "x 1\n")
		return err
	}))
	if body, ct := get(t, base+"/doc"); body != "{\"n\":3}\n" || ct != "application/json" {
		t.Fatalf("/doc = %q (%s)", body, ct)
	}
	if body, ct := get(t, base+"/metrics"); body != "x 1\n" || !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics = %q (%s)", body, ct)
	}
}

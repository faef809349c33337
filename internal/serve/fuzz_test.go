package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSweepBody holds POST /v1/sweep to its input contract on arbitrary
// bodies: it never panics, never answers 5xx, and admits (202) only a
// body that a strict decoder — unknown fields refused — reads as exactly
// one request with nothing after it.
func FuzzSweepBody(f *testing.F) {
	for _, body := range strictBodies {
		f.Add(body)
	}
	f.Add(tinyGrid)
	f.Add(`{"points":[]}`)
	f.Add(`{"points":[{"generation":9}],"disableCache":true}`)

	s := New(Options{MaxPoints: 64})
	s.sweepFn = stubSweep(nil)
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		if w.Code >= 500 {
			t.Fatalf("status %d for body %q", w.Code, body)
		}
		if w.Code != http.StatusAccepted {
			return
		}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req SweepRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("admitted a body the strict decoder refuses (%v): %q", err, body)
		}
		if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
			t.Fatalf("admitted a body with trailing data (%v): %q", err, body)
		}
	})
}

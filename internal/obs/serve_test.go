package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testMux(healthy bool) *http.ServeMux {
	r := NewRegistry()
	r.Counter("pubsub_steps_total").Add(7)
	r.Collect(r, func(c *Collector) { c.Gauge("pubsub_sub_steps_behind", 2, "sub", "east") })
	tr := NewTracer(8)
	s := tr.Start("step")
	s.Child("drain").End()
	s.End()
	return NewMux(Options{
		Registry: r,
		Tracer:   tr,
		Health:   func() (any, bool) { return map[string]int{"subs": 2}, healthy },
	})
}

func get(t *testing.T, mux *http.ServeMux, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestMetricsEndpointText(t *testing.T) {
	code, body := get(t, testMux(true), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"pubsub_steps_total 7", `pubsub_sub_steps_behind{sub="east"} 2`} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsEndpointJSON(t *testing.T) {
	code, body := get(t, testMux(true), "/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var payload struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(payload.Metrics) != 2 {
		t.Fatalf("JSON metrics = %d, want 2", len(payload.Metrics))
	}
}

func TestHealthzStatusCodes(t *testing.T) {
	if code, body := get(t, testMux(true), "/healthz"); code != http.StatusOK || !strings.Contains(body, `"healthy": true`) {
		t.Fatalf("healthy: status %d body %s", code, body)
	}
	if code, body := get(t, testMux(false), "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"healthy": false`) {
		t.Fatalf("unhealthy: status %d body %s", code, body)
	}
}

func TestTracesEndpoint(t *testing.T) {
	mux := testMux(true)
	code, body := get(t, mux, "/traces?n=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var payload struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(payload.Spans) != 1 || payload.Spans[0].Name != "step" {
		t.Fatalf("spans = %+v, want the newest (step)", payload.Spans)
	}
	if code, _ := get(t, mux, "/traces?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", code)
	}
}

func TestPprofGating(t *testing.T) {
	off := NewMux(Options{})
	if code, _ := get(t, off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", code)
	}
	on := NewMux(Options{Pprof: true})
	if code, _ := get(t, on, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof on: status %d, want 200", code)
	}
}

func TestEmptyOptionsEndpointsStillRespond(t *testing.T) {
	mux := NewMux(Options{})
	if code, _ := get(t, mux, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics with no registry: %d", code)
	}
	if code, body := get(t, mux, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"healthy": true`) {
		t.Fatalf("/healthz with no probe: %d %s", code, body)
	}
	if code, _ := get(t, mux, "/traces"); code != http.StatusOK {
		t.Fatalf("/traces with no tracer: %d", code)
	}
}

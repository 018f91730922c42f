package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"demandrace/internal/cluster"
	"demandrace/internal/httpapi"
	"demandrace/internal/obs"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/service"
)

// syncBuffer collects log output written from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// accessLog returns the last "http request" line logged for route.
func (b *syncBuffer) accessLog(t *testing.T, route string) map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var last map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "http request" && rec["route"] == route {
			last = rec
		}
	}
	if last == nil {
		t.Fatalf("no access log for route %s in:\n%s", route, b.buf.String())
	}
	return last
}

// tier is one daemon under test: its handler, its registry, and what the
// shared surface should look like from it.
type tier struct {
	name          string
	handler       http.Handler
	reg           *obs.Registry
	logs          *syncBuffer
	latencyFamily string
	slo           bool            // ddserved's SLO counters tick
	unserved      map[string]bool // route keys the tier leaves to the mux
}

func newTiers(t *testing.T) []tier {
	t.Helper()
	newLog := func() (*syncBuffer, *slog.Logger) {
		buf := &syncBuffer{}
		return buf, olog.New(olog.Options{Level: slog.LevelDebug, Format: olog.FormatJSON, Output: buf})
	}

	svcLogs, svcLog := newLog()
	svcReg := obs.NewRegistry()
	srv := service.NewServer(service.Config{Workers: 1, Registry: svcReg, Log: svcLog})

	// The gateway fronts a real backend, so forwarded routes reach one.
	backend := httptest.NewServer(service.NewServer(service.Config{Workers: 1}).Handler())
	t.Cleanup(backend.Close)
	gateLogs, gateLog := newLog()
	gateReg := obs.NewRegistry()
	g, err := cluster.NewGateway(cluster.Config{
		Backends:      []cluster.Backend{{Name: "b1", URL: backend.URL}},
		ProbeInterval: time.Hour,
		Registry:      gateReg,
		Log:           gateLog,
	})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	t.Cleanup(g.Stop)

	return []tier{
		{name: "ddserved", handler: srv.Handler(), reg: svcReg, logs: svcLogs,
			latencyFamily: obs.SvcHTTPLatency, slo: true},
		{name: "ddgate", handler: g.Handler(), reg: gateReg, logs: gateLogs,
			latencyFamily: obs.GateHTTPLatency,
			unserved:      map[string]bool{"get_cache_keys": true, "get_cache_entry": true, "put_cache_entry": true}},
	}
}

// TestSharedSurface runs the same checks of the shared route table and
// middleware against both daemons' handlers.
func TestSharedSurface(t *testing.T) {
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, tc := range newTiers(t) {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(r *http.Request) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				tc.handler.ServeHTTP(rec, r)
				return rec
			}

			// An inbound traceparent is continued into the access log.
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
			serve(req)
			healthz := tc.logs.accessLog(t, "healthz")
			if healthz["trace_id"] != traceID {
				t.Errorf("healthz trace_id = %v, want the inbound %s", healthz["trace_id"], traceID)
			}
			// Quiet routes log at debug, the others at info.
			if healthz["level"] != "DEBUG" {
				t.Errorf("quiet healthz logged at %v, want DEBUG", healthz["level"])
			}
			serve(httptest.NewRequest(http.MethodGet, "/v1/jobs/nobody:j-1", nil))
			job := tc.logs.accessLog(t, "get_job")
			if job["level"] != "INFO" {
				t.Errorf("get_job logged at %v, want INFO", job["level"])
			}
			for _, key := range []string{"method", "path", "route", "status", "bytes", "dur_ms", "trace_id"} {
				if _, ok := job[key]; !ok {
					t.Errorf("access log missing %q: %v", key, job)
				}
			}

			// The event stream gets the raw writer (an http.Flusher: the
			// recorder's) and stays out of the latency histogram.
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // the stream answers hello, then sees the client gone
			events := serve(httptest.NewRequest(http.MethodGet, "/v1/events", nil).WithContext(ctx))
			if events.Code != http.StatusOK || !strings.Contains(events.Body.String(), "hello") {
				t.Errorf("/v1/events = %d %q, want 200 with a hello event", events.Code, events.Body.String())
			}
			if n := tc.reg.Histogram(obs.Series(tc.latencyFamily, "route", "get_events"), obs.LatencyBuckets).Count(); n != 0 {
				t.Errorf("get_events latency observations = %d, want 0", n)
			}

			// The per-route histogram carries the tier's prefix.
			if n := tc.reg.Histogram(obs.Series(tc.latencyFamily, "route", "healthz"), obs.LatencyBuckets).Count(); n == 0 {
				t.Errorf("%s healthz recorded no observation", tc.latencyFamily)
			}
			// The SLO counters tick on ddserved only.
			if got := tc.reg.CounterValue(obs.SvcSLORequests) > 0; got != tc.slo {
				t.Errorf("SLO requests ticked = %v, want %v", got, tc.slo)
			}

			// Every table route the tier serves reaches a handler: a mux 404
			// or 405 answers in plain text, a handler in JSON or its own type.
			path := strings.NewReplacer("{id}", "nobody:j-1", "{seq}", "0", "{key}", "k")
			for _, rt := range httpapi.Routes {
				if rt.Stream {
					continue // checked above; it would hold the recorder open
				}
				method, pattern, _ := strings.Cut(rt.Pattern, " ")
				rec := serve(httptest.NewRequest(method, path.Replace(pattern), nil))
				muxAnswered := (rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed) &&
					strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain")
				if muxAnswered != tc.unserved[rt.Key] {
					t.Errorf("%s: status %d (%s), served = %v, want %v", rt.Pattern, rec.Code,
						rec.Header().Get("Content-Type"), !muxAnswered, !tc.unserved[rt.Key])
				}
			}
		})
	}
}

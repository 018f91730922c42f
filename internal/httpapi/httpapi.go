// Package httpapi is the HTTP surface ddserved and ddgate share: the
// ordered route table, the request-scoped observability middleware, the
// JSON response helpers and the tenant admission gate. Each tier supplies
// only its handlers (by route key), its latency family and its span
// prefix, so a change to routing, access logging or admission is made
// once for both.
package httpapi

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/tenant"
)

// Route is one entry of the API surface: a mux pattern and the stable key
// naming its latency series (label route=Key in the tier's family), its
// request span and its /v1/stats row. Quiet routes are polled by
// infrastructure, so their access logs emit at debug. Stream routes hold
// their connection open indefinitely (SSE), so they bypass the latency
// histogram and SLO accounting — an hour-long tail is not an hour-long
// request. On a LongPoll route a request carrying ?wait= blocks until its
// job ends, so it bypasses them too, but keeps its access-log line.
type Route struct {
	Pattern  string
	Key      string
	Quiet    bool
	Stream   bool
	LongPoll bool
}

// Routes is the API surface in a fixed order — the order ddserved's
// /v1/stats reports endpoints in. The three /v1/cache routes are
// ddserved's fleet-internal replication surface; ddgate serves the rest.
var Routes = []Route{
	{"POST /v1/jobs", "post_jobs", false, false, false},
	{"POST /v1/traces", "post_traces", false, false, false},
	{"PUT /v1/traces/{id}/chunks/{seq}", "put_trace_chunk", false, false, false},
	{"GET /v1/traces/{id}", "get_trace_session", false, false, false},
	{"POST /v1/traces/{id}/commit", "post_trace_commit", false, false, false},
	{"GET /v1/jobs/{id}", "get_job", false, false, true},
	{"GET /v1/jobs/{id}/trace", "get_job_trace", false, false, false},
	{"GET /v1/jobs/{id}/partial", "get_job_partial", false, false, false},
	{"GET /v1/results/{id}", "get_result", false, false, false},
	{"GET /v1/cache", "get_cache_keys", true, false, false},
	{"GET /v1/cache/{key}", "get_cache_entry", true, false, false},
	{"PUT /v1/cache/{key}", "put_cache_entry", true, false, false},
	{"GET /v1/timeseries", "get_timeseries", true, false, false},
	{"GET /v1/events", "get_events", true, true, false},
	{"GET /v1/alerts", "get_alerts", true, false, false},
	{"GET /v1/dashboard", "get_dashboard", true, false, false},
	{"GET /v1/stats", "get_stats", true, false, false},
	{"GET /healthz", "healthz", true, false, false},
	{"GET /metrics", "metrics", true, false, false},
}

// Tier is one daemon's face on the shared surface.
type Tier struct {
	Registry *obs.Registry
	Log      *slog.Logger
	// Requests ticks once for every request the mux serves.
	Requests *obs.Counter
	// LatencyFamily is the per-route latency histogram family; a route's
	// series is Latency(Route.Key). SpanPrefix + Route.Key names its
	// request span.
	LatencyFamily string
	SpanPrefix    string
	// SLORequests ticks for every measured request and SLOBreaches for
	// those slower than SLOLatency. Both are nil on a tier without an SLO.
	SLORequests *obs.Counter
	SLOBreaches *obs.Counter
	SLOLatency  time.Duration
	// Tenants is the admission registry (nil when tenancy is off);
	// Rejected ticks for every submission the tenant gate throttles.
	Tenants  *tenant.Registry
	Rejected *obs.Counter
}

// Handler serves each handler, keyed by Route.Key, on its route's pattern,
// wrapped in the observability middleware. Routes without a handler are
// not served.
func (t *Tier) Handler(handlers map[string]http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	served := 0
	for _, rt := range Routes {
		if h, ok := handlers[rt.Key]; ok {
			mux.Handle(rt.Pattern, t.instrument(rt, h))
			served++
		}
	}
	if served != len(handlers) {
		panic("httpapi: handler registered for a key outside the route table")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Requests.Inc()
		mux.ServeHTTP(w, r)
	})
}

// statusRecorder captures the status code and body bytes a handler wrote,
// for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += n
	return n, err
}

// instrument wraps one route with the request-scoped observability stack:
// a span, the per-route latency histogram, the SLO counters and a
// structured access-log line. The incoming traceparent is parsed (or a
// fresh root trace minted) before anything else, so the span, the access
// log, and whatever the handler admits all share one trace ID.
func (t *Tier) instrument(rt Route, h http.HandlerFunc) http.Handler {
	// Registered for every route, stream ones included, so the /metrics
	// exposition lists the whole table.
	hist := t.Latency(rt.Key)
	spanName := t.SpanPrefix + rt.Key
	logf := t.Log.Info
	if rt.Quiet {
		logf = t.Log.Debug
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, _ := tracectx.FromHeader(r.Header.Get)
		ctx := tracectx.Into(r.Context(), tc)
		if rt.Stream {
			// SSE: hand the raw writer through (the recorder would hide
			// http.Flusher) and log open/close instead of a latency line.
			t.Log.Debug("event stream open", "path", r.URL.Path, "trace_id", tc.TraceID())
			h(w, r.WithContext(ctx))
			t.Log.Debug("event stream closed", "path", r.URL.Path, "trace_id", tc.TraceID())
			return
		}
		ctx, span := obs.StartSpan(ctx, spanName)
		span.SetAttr("trace_id", tc.TraceID())
		measured := !rt.LongPoll || r.URL.Query().Get("wait") == ""
		if measured {
			span.ObserveInto(hist)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r.WithContext(ctx))
		dur := span.End()

		if measured {
			t.SLORequests.Inc()
			if dur > t.SLOLatency {
				t.SLOBreaches.Inc()
			}
		}
		logf("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", rt.Key,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur_ms", float64(dur)/float64(time.Millisecond),
			"trace_id", tc.TraceID(),
		)
	})
}

// Latency returns the latency histogram of the route with key.
func (t *Tier) Latency(key string) *obs.Histogram {
	return t.Registry.Histogram(obs.Series(t.LatencyFamily, "route", key), obs.LatencyBuckets)
}

// AdmitTenant runs the tenant gate for one submission: resolve the API
// key (401 on an unknown key while tenancy is on), stamp the resolved
// tenant name into the response header, and spend an admission token
// (429 + the tenant's own Retry-After horizon on exhaustion). ok=false
// means the response has been written. With tenancy off it admits with a
// nil tenant.
func (t *Tier) AdmitTenant(w http.ResponseWriter, r *http.Request) (*tenant.Tenant, bool) {
	tn, err := t.Tenants.Resolve(r.Header.Get(tenant.HeaderAPIKey))
	if err != nil {
		WriteError(w, http.StatusUnauthorized, err.Error())
		return nil, false
	}
	if tn != nil {
		w.Header().Set(tenant.HeaderTenant, tn.Name())
	}
	if ra, ok := t.Tenants.Admit(tn); !ok {
		t.Rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		t.Log.Warn("job rejected", "reason", "tenant throttled", "tenant", tn.Name(), "retry_after_s", ra)
		WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q: admission budget exhausted, retry in %ds", tn.Name(), ra))
		return nil, false
	}
	return tn, true
}

// WriteJSON answers code with v as a JSON document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers code with the {"error": msg} document.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// ServeMetrics answers GET /metrics with the Prometheus text exposition of
// the tier's registry.
func (t *Tier) ServeMetrics(w http.ResponseWriter, _ *http.Request) {
	// Scrape time is an observation point: refresh the process-level
	// runtime gauges so goroutine/heap/GC numbers are current.
	obs.UpdateProcessGauges(t.Registry)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := t.Registry.WriteProm(w); err != nil {
		// Headers are gone; nothing useful left to do but note it.
		fmt.Fprintf(w, "# write error: %v\n", err)
	}
}

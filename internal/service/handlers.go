package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"time"

	"demandrace/internal/httpapi"
	"demandrace/internal/obs/alert"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tsdb"
	"demandrace/internal/tenant"
	"demandrace/internal/trace"
)

// TraceContentType is the media type of a binary trace upload; raw
// application/octet-stream is accepted as a synonym.
const TraceContentType = "application/x-ddrace-trace"

// Handler returns the service API:
//
//	POST /v1/jobs          submit a job (JSON Request, or a binary trace
//	                       upload with ?fullvc=1&max_reports=N&timeout_ms=D)
//	GET  /v1/jobs/{id}     job status; ?wait=D long-polls until the job
//	                       is terminal or min(D, 10s) has passed
//	GET  /v1/results/{id}  result JSON of a done job
//	GET  /v1/stats         latency percentiles, SLO budget, pool state
//	GET  /healthz          liveness, drain state, queue-pressure degradation
//	GET  /metrics          Prometheus text exposition of the registry
//
// Submissions answer 202 (accepted), 200 (cache hit, already done), 400
// (malformed), 413 (upload over limits), 429 + Retry-After (queue full),
// or 503 (draining).
//
// Every route is wrapped in the shared observability middleware
// (internal/httpapi): a wall-clock span, a per-endpoint latency histogram,
// the SLO breach counters, and a structured access-log line.
func (s *Server) Handler() http.Handler {
	return s.api.Handler(map[string]http.HandlerFunc{
		"post_jobs":         s.handleSubmit,
		"post_traces":       s.handleTraceOpen,
		"put_trace_chunk":   s.handleTraceChunk,
		"get_trace_session": s.handleTraceSession,
		"post_trace_commit": s.handleTraceCommit,
		"get_job":           s.handleStatus,
		"get_job_trace":     s.handleJobTrace,
		"get_job_partial":   s.handlePartial,
		"get_result":        s.handleResult,
		"get_cache_keys":    s.handleCacheKeys,
		"get_cache_entry":   s.handleCacheGet,
		"put_cache_entry":   s.handleCachePut,
		"get_timeseries":    s.handleTimeseries,
		"get_events":        s.handleEvents,
		"get_alerts":        s.handleAlerts,
		"get_dashboard":     s.handleDashboard,
		"get_stats":         s.handleStats,
		"healthz":           s.handleHealth,
		"metrics":           s.api.ServeMetrics,
	})
}

// countingReader counts the bytes a submission actually consumed, for
// per-tenant usage accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, admitted := s.api.AdmitTenant(w, r)
	if !admitted {
		return
	}
	ctx := tenant.Into(r.Context(), tn)
	body := &countingReader{r: r.Body}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var (
		st  Status
		err error
	)
	switch ct {
	case TraceContentType, "application/octet-stream":
		st, err = s.SubmitTrace(ctx, body, ParseTraceOptions(r.URL.Query()))
	default:
		var req Request
		if derr := json.NewDecoder(body).Decode(&req); derr != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", derr))
			return
		}
		st, err = s.Submit(ctx, req)
	}
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.tenants.Account(tn, body.n, st.CacheHit)
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK // cache hit: the result is already fetchable
	}
	httpapi.WriteJSON(w, code, st)
}

// writeSubmitError maps admission errors onto status codes.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var lim *trace.LimitError
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		httpapi.WriteError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &lim):
		httpapi.WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
	default:
		httpapi.WriteError(w, http.StatusBadRequest, err.Error())
	}
}

// maxWait bounds how long GET /v1/jobs/{id}?wait= holds a request open.
const maxWait = 10 * time.Second

// handleStatus answers a job's status. With ?wait=<Go duration> it is a
// long-poll: the answer is held until the job is terminal or
// min(wait, maxWait) has passed, whichever comes first.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r.URL.Query().Get("wait"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	// An expired bound is not an error: it answers the current status.
	st, err := s.Wait(ctx, r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		httpapi.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, st)
}

// parseWait reads a ?wait= value: empty means no wait, anything else must
// be a non-negative Go duration and is clamped to maxWait.
func parseWait(q string) (time.Duration, error) {
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("wait %q: want a non-negative Go duration", q)
	}
	return min(d, maxWait), nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	data, st, err := s.Result(r.PathValue("id"))
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	case StateFailed:
		httpapi.WriteError(w, http.StatusInternalServerError, st.Error)
	case StateCanceled:
		httpapi.WriteError(w, http.StatusGatewayTimeout, st.Error)
	default:
		// Not terminal yet: tell the poller to come back.
		httpapi.WriteJSON(w, http.StatusConflict, st)
	}
}

// Health states, in degradation order. Load balancers should route traffic
// only to "ok" backends; "degraded" (queue past the high-water mark) and
// "draining" both answer 503 so shedding starts before hard 429 rejections.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthDraining = "draining"
)

// Health reports the server's current health state and queue occupancy.
func (s *Server) Health() (state string, queued, inflight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued = len(s.queue)
	inflight = s.inflight
	switch {
	case s.closed:
		state = HealthDraining
	case queued > s.cfg.QueueHighWater:
		state = HealthDegraded
	default:
		state = HealthOK
	}
	return state, queued, inflight
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	state, queued, inflight := s.Health()
	pending, firing := s.alerts.Counts()
	// Per-subsystem detail makes the degraded→503 transition explainable
	// from the response alone: which gauge crossed which bound.
	subsystems := map[string]any{
		"queue": map[string]any{
			"depth":      queued,
			"capacity":   s.cfg.QueueDepth,
			"high_water": s.cfg.QueueHighWater,
			"degraded":   queued > s.cfg.QueueHighWater,
		},
		"workers": map[string]any{
			"width":           s.cfg.Workers,
			"inflight":        inflight,
			"utilization_pct": s.gUtil.Value(),
		},
		"ingest": map[string]any{
			"open_sessions": s.ing.Len(),
			"max_sessions":  s.ing.Config().MaxSessions,
		},
		"alerts": map[string]any{
			"pending": pending,
			"firing":  firing,
		},
	}
	if s.cfg.Store != nil {
		subsystems["store"] = map[string]any{
			"dir":     s.cfg.Store.Dir(),
			"entries": s.cfg.Store.Len(),
			"bytes":   s.cfg.Store.Size(),
		}
	}
	if s.tenants.Enabled() {
		ts := s.tenants.StatsSnapshot()
		var throttled uint64
		for _, t := range ts {
			throttled += t.Throttled
		}
		subsystems["tenants"] = map[string]any{
			"count":     len(ts),
			"throttled": throttled,
		}
	}
	body := map[string]any{
		"status":     state,
		"queued":     queued,
		"inflight":   inflight,
		"high_water": s.cfg.QueueHighWater,
		"subsystems": subsystems,
	}
	code := http.StatusOK
	if state != HealthOK {
		code = http.StatusServiceUnavailable
	}
	httpapi.WriteJSON(w, code, body)
}

func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, s.alerts.Doc())
}

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	alert.ServeConsole(w, s.cfg.Node)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	data, err := s.JobTrace(r.PathValue("id"))
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	since, err := tsdb.ParseSince(r.URL.Query().Get("since"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, s.ts.Doc(r.URL.Query().Get("metric"), since))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	stream.ServeSSE(w, r, s.bus)
}

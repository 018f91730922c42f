package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sort"
	"strings"

	"demandrace/internal/httpapi"
	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/obs/tsdb"
	"demandrace/internal/service"
	"demandrace/internal/tenant"
)

// Handler returns the gateway API — the same surface a single ddserved
// node exposes (internal/httpapi's route table, minus the fleet-internal
// /v1/cache routes), so service.Client and `ddrace -submit` work unchanged:
//
//	POST /v1/jobs          route by content hash, failover + hedging
//	GET  /v1/jobs/{id}     forwarded to the owning backend (id prefix),
//	                       ?wait= long-polls included
//	GET  /v1/results/{id}  forwarded to the owning backend, bytes untouched
//	GET  /v1/stats         gateway + per-backend aggregated stats
//	GET  /healthz          ring capacity (503 only when no backend routable)
//	GET  /metrics          Prometheus text exposition of the gateway registry
func (g *Gateway) Handler() http.Handler {
	return g.api.Handler(map[string]http.HandlerFunc{
		"post_jobs":         g.handleSubmit,
		"post_traces":       g.handleTraceOpen,
		"put_trace_chunk":   g.handleTraceChunk,
		"get_trace_session": g.handleOwned,
		"post_trace_commit": g.handleOwned,
		"get_job":           g.handleOwned,
		"get_job_trace":     g.handleJobTrace,
		"get_job_partial":   g.handleOwned,
		"get_result":        g.handleResult,
		"get_timeseries":    g.handleTimeseries,
		"get_events":        g.handleEvents,
		"get_alerts":        g.handleAlerts,
		"get_dashboard":     g.handleDashboard,
		"get_stats":         g.handleStats,
		"healthz":           g.handleHealth,
		"metrics":           g.api.ServeMetrics,
	})
}

// handleSubmit routes a submission by content hash. The body is buffered
// (bounded) so retries and hedges can replay it, the routing key is
// computed with the same hashes the backends use for caching, and the
// winning backend's job ID comes back namespaced as "<backend>:<id>".
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Record this request's gateway-side spans (the request envelope plus
	// every forward/hedge attempt) so the job's trace waterfall can show
	// the gateway hop above the backend's stages.
	grec := obs.NewSpanRecorder(g.cfg.Node, 0)
	obs.SpanFrom(r.Context()).RecordInto(grec)

	// Edge admission first: a throttled tenant is answered before its body
	// is even read, let alone forwarded.
	tn, admitted := g.api.AdmitTenant(w, r)
	if !admitted {
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}

	var key string
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch ct {
	case service.TraceContentType, "application/octet-stream":
		key = service.TraceCacheKey(body, service.ParseTraceOptions(r.URL.Query()))
	default:
		var req service.Request
		if derr := json.Unmarshal(body, &req); derr != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", derr))
			return
		}
		if verr := req.Validate(); verr != nil {
			// Reject at the edge: no reason to burn a backend round trip
			// on a request every backend would 400.
			httpapi.WriteError(w, http.StatusBadRequest, verr.Error())
			return
		}
		key = req.CacheKey()
	}

	up, ok := g.routeByKey(w, r, key, body)
	if !ok {
		return
	}
	tc, _ := tracectx.From(r.Context())
	g.log.Info("job routed", "key", key[:16], "backend", up.backend, "status", up.status,
		"trace_id", tc.TraceID())
	g.tenants.Account(tn, int64(len(body)), up.status == http.StatusOK)
	var st service.Status
	if json.Unmarshal(up.body, &st) == nil && st.ID != "" {
		gid := joinJobID(up.backend, st.ID)
		g.traces.put(gid, grec)
		// Remember which key this job answers for (read-repair joins on it),
		// and start replication right away for born-done cache hits — queued
		// jobs are tracked when their job_done event is tailed.
		g.jobKeys.put(gid, key)
		if st.State == service.StateDone {
			g.replica.Track(key, up.backend)
		}
	}
	g.relay(w, up, true)
}

// readBody buffers a request body for forwarding, answering 400 or 413
// itself (ok=false) when it cannot be read within MaxBodyBytes.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return nil, false
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		httpapi.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cluster: request body exceeds %d bytes", g.cfg.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// routeByKey forwards r to key's ring candidates with failover and
// hedging. With no routable backend it answers 503 itself, and when every
// candidate failed 502 (ok=false either way).
func (g *Gateway) routeByKey(w http.ResponseWriter, r *http.Request, key string, body []byte) (upstream, bool) {
	candidates := g.candidates(key)
	if len(candidates) == 0 {
		g.cErrors.Inc()
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, http.StatusServiceUnavailable, "cluster: no healthy backends")
		return upstream{}, false
	}
	up, err := g.forward(r.Context(), candidates, proxyRequest(r, r.URL.Path, body))
	if err != nil {
		g.log.Error("request failed on every candidate", "path", r.URL.Path, "error", err.Error())
		g.badGateway(w, fmt.Sprintf("cluster: all backends failed: %v", err))
		return upstream{}, false
	}
	return up, true
}

// handleOwned forwards a per-job or per-session request — job status,
// session status, commit, partial report — to its owner and relays the
// answer with its IDs re-namespaced.
func (g *Gateway) handleOwned(w http.ResponseWriter, r *http.Request) {
	g.proxyOwner(w, r, nil)
}

// proxyOwner is the owner-forward path: resolve the owner, forward with no
// failover, answer 502 when the owner is unreachable, else relay.
func (g *Gateway) proxyOwner(w http.ResponseWriter, r *http.Request, body []byte) {
	b, path, ok := g.owner(w, r)
	if !ok {
		return
	}
	up, err := g.forwardOwner(r, b, path, body)
	if err != nil {
		g.unreachable(w, b, err)
		return
	}
	g.relay(w, up, true)
}

// handleResult forwards a result fetch to the owning backend. The 200
// body is relayed byte-for-byte: result bytes through the gateway are
// identical to result bytes fetched directly. When the owner is
// unreachable (or restarted without the result), the fetch falls through
// to the key's replica chain: read-repair serves the identical sealed
// bytes from a successor and queues the owner for back-fill.
func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	b, path, ok := g.owner(w, r)
	if !ok {
		return
	}
	up, err := g.forwardOwner(r, b, path, nil)
	if err == nil && up.status != http.StatusNotFound {
		g.relay(w, up, false)
		return
	}
	// Owner gone (or a restarted owner that no longer knows the job): the
	// result may still be alive on a replica.
	if g.serveRepaired(w, r, r.PathValue("id"), b.Name) {
		return
	}
	if err != nil {
		g.unreachable(w, b, err)
		return
	}
	g.relay(w, up, false)
}

// owner resolves the backend named by the namespaced {id} path segment
// ("<backend>:<id>", a job or an upload session) and returns the request
// path with the backend-local ID in its place. An unroutable ID is
// answered 404 here (ok=false).
func (g *Gateway) owner(w http.ResponseWriter, r *http.Request) (*backend, string, bool) {
	id := r.PathValue("id")
	name, remoteID, ok := splitJobID(id)
	b := g.byName[name]
	if !ok || b == nil {
		httpapi.WriteError(w, http.StatusNotFound,
			fmt.Sprintf("cluster: no such job or session %q (gateway ids look like backend:j-n or backend:s-n)", id))
		return nil, "", false
	}
	// {id} is a whole '/'-free segment and the route prefixes hold no ':',
	// so the first occurrence of id in the path is that segment.
	return b, strings.Replace(r.URL.Path, id, remoteID, 1), true
}

// forwardOwner sends r to its owner at path, with no failover: job and
// session state are node-local, so another replica could only answer 404.
func (g *Gateway) forwardOwner(r *http.Request, b *backend, path string, body []byte) (upstream, error) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Retry.Timeout)
	defer cancel()
	return g.attemptOne(ctx, b, proxyRequest(r, path, body))
}

// unreachable answers 502 for an owner the gateway could not reach.
func (g *Gateway) unreachable(w http.ResponseWriter, b *backend, err error) {
	g.badGateway(w, fmt.Sprintf("cluster: backend %s unreachable: %v", b.Name, err))
}

// badGateway answers 502 for a failure of the gateway's own forwarding,
// counting it in ddgate_errors_total. Every gateway-made 502 goes through
// here; a 502 a backend answered itself is relayed, not counted.
func (g *Gateway) badGateway(w http.ResponseWriter, msg string) {
	g.cErrors.Inc()
	httpapi.WriteError(w, http.StatusBadGateway, msg)
}

// forwardedHeaders are the client request headers an upstream call carries
// over: the body's media type, a chunk's checksum, and the API key (so
// backend-side tenancy keeps working through the gateway).
var forwardedHeaders = []string{"Content-Type", service.ChunkCRCHeader, tenant.HeaderAPIKey}

// relayedHeaders are the upstream response headers relayed to the client.
var relayedHeaders = []string{"Content-Type", "Retry-After", tenant.HeaderTenant}

// proxyRequest builds r's upstream copy for a backend: the same method,
// the given path and r's query, the buffered body, and forwardedHeaders.
func proxyRequest(r *http.Request, path string, body []byte) func(base string) (*http.Request, error) {
	return func(base string) (*http.Request, error) {
		u := base + path
		if r.URL.RawQuery != "" {
			u += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequest(r.Method, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for _, h := range forwardedHeaders {
			if v := r.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		return req, nil
	}
}

// relay writes an upstream answer to the client, relayedHeaders included.
// With namespace set the document's backend-local IDs are rewritten into
// the gateway's "<backend>:<id>" form; otherwise the body passes through
// byte-for-byte.
func (g *Gateway) relay(w http.ResponseWriter, up upstream, namespace bool) {
	for _, h := range relayedHeaders {
		if v := up.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	body := up.body
	if namespace {
		body = namespaceIDs(body, up.backend)
	}
	w.WriteHeader(up.status)
	w.Write(body)
}

// idFields name the top-level fields that carry backend-local IDs: the
// job status "id", and the "session" and bound "job" of session
// snapshots, chunk acks and partial reports.
var idFields = []string{"id", "session", "job"}

// namespaceIDs rewrites every non-empty idFields string of a JSON object
// into the gateway namespace. Anything else — an error document, a body
// that is not an object — comes back unchanged.
func namespaceIDs(body []byte, backendName string) []byte {
	var doc map[string]json.RawMessage
	if json.Unmarshal(body, &doc) != nil {
		return body
	}
	changed := false
	for _, f := range idFields {
		var id string
		if json.Unmarshal(doc[f], &id) != nil || id == "" {
			continue
		}
		doc[f], _ = json.Marshal(joinJobID(backendName, id))
		changed = true
	}
	if !changed {
		return body
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return body
	}
	return append(out, '\n')
}

// handleHealth reports ring capacity. The gateway stays 200 while at
// least one backend is routable — shedding the whole cluster because one
// replica died would turn a partial failure into a total one; only an
// empty ring answers 503.
func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	perBackend := make(map[string]string, len(g.backends))
	ok, degraded := 0, 0
	for _, b := range g.backends {
		h := b.Health()
		perBackend[b.Name] = h.String()
		switch h {
		case HealthOK:
			ok++
		case HealthDegraded:
			degraded++
		}
	}
	status := service.HealthOK
	code := http.StatusOK
	rs := g.replica.StatsSnapshot()
	switch {
	case ok+degraded == 0:
		status = "down"
		code = http.StatusServiceUnavailable
	case ok < len(g.backends):
		status = service.HealthDegraded
	case rs.Degraded:
		// Handoff missed its deadline: every backend answers, but some
		// sealed results are still below their replication factor.
		status = service.HealthDegraded
	}
	body := map[string]any{
		"status":    status,
		"ring_size": g.ring.Size(),
		"backends":  perBackend,
	}
	if rs.Factor > 1 {
		body["replication"] = map[string]any{
			"factor":           rs.Factor,
			"tracked":          rs.Tracked,
			"under_replicated": rs.UnderReplicated,
			"queue":            rs.Queue,
			"degraded":         rs.Degraded,
		}
	}
	httpapi.WriteJSON(w, code, body)
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, g.Stats(r.Context()))
}

// handleJobTrace merges two waterfalls onto one timeline: the gateway's
// recorded forwarding spans for the job (if still retained) and the
// owning backend's stage spans, fetched live. Both documents carry their
// absolute base time, so re-encoding the concatenated records lines the
// gateway hop up above the backend stages exactly as they happened.
func (g *Gateway) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	b, path, ok := g.owner(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	up, err := g.forwardOwner(r, b, path, nil)

	extra := map[string]string{"job_id": id, "node": g.cfg.Node}
	var backendRecs []obs.SpanRecord
	if err == nil && up.status == http.StatusOK {
		recs, other, derr := obs.DecodeSpanTrace(up.body)
		if derr != nil {
			g.badGateway(w, fmt.Sprintf("cluster: backend %s returned an unreadable trace: %v", b.Name, derr))
			return
		}
		backendRecs = recs
		for _, k := range []string{"trace_id", "state"} {
			if v := other[k]; v != "" {
				extra[k] = v
			}
		}
	}
	grec, _ := g.traces.get(id)
	gwRecs := grec.Records()
	if len(backendRecs) == 0 && len(gwRecs) == 0 {
		// Nothing to merge: pass the backend's answer (or failure) through.
		if err != nil {
			g.unreachable(w, b, err)
			return
		}
		g.relay(w, up, false)
		return
	}
	data, eerr := obs.EncodeSpanTrace("job "+id, append(gwRecs, backendRecs...), extra)
	if eerr != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, eerr.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleTimeseries serves the fleet view: the gateway's own sampled
// history plus every reachable backend's. Per-series Node fields keep the
// merged document attributable; an unreachable backend just contributes
// nothing.
func (g *Gateway) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	since, err := tsdb.ParseSince(r.URL.Query().Get("since"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	doc := g.ts.Doc(r.URL.Query().Get("metric"), since)
	docs, errs := fanOut[tsdb.Doc](r.Context(), g, "/v1/timeseries?"+r.URL.RawQuery)
	for i, d := range docs {
		if errs[i] == nil {
			doc.Series = append(doc.Series, d.Series...)
		}
	}
	sort.Slice(doc.Series, func(i, j int) bool {
		if doc.Series[i].Node != doc.Series[j].Node {
			return doc.Series[i].Node < doc.Series[j].Node
		}
		return doc.Series[i].Metric < doc.Series[j].Metric
	})
	httpapi.WriteJSON(w, http.StatusOK, doc)
}

func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	stream.ServeSSE(w, r, g.bus)
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/service"
)

// span is one timed call into a layer, recorded from outside it: what
// ran, when, the span that caused it, and the operation (run, job or
// upload) it belongs to.
type span struct {
	id, parent string
	name       string // layer.call, e.g. "cache.access" or "service.status"
	track      string // process tier: bench, client, gateway, backend-N
	op         string // the operation this span serves, when known
	trace      string // traceparent trace ID, for HTTP spans
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps the spans and layer values of one traced pass in memory.
// Spans are written out once, when the benchmark ends. It records only
// while on.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	vals  map[string]float64
}

func newTracer() *tracer { return &tracer{vals: make(map[string]float64)} }

// newID mints a span ID unique within the pass.
func (t *tracer) newID() string { return "s" + strconv.FormatUint(t.ids.Add(1), 10) }

func (t *tracer) add(s span) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// set records a layer metric computed by the pass.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.vals[name] = v
	t.mu.Unlock()
}

func (t *tracer) values() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.vals))
	for k, v := range t.vals {
		out[k] = v
	}
	return out
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs fn inside a span and returns the span.
func (t *tracer) timed(name, op, parent string, fn func()) span {
	s := span{id: t.newID(), parent: parent, name: name, track: "bench", op: op, start: time.Now()}
	fn()
	s.end = time.Now()
	t.add(s)
	return s
}

// referencedPass drives run untraced for the first third of the time
// left, as the reference for the tracing overhead, then traced until the
// deadline, with *traced set and the tracer on. It records
// bench.trace_overhead_share (traced minus untraced wall time per
// operation, over untraced) and returns the traced pass's length.
func referencedPass(ctx context.Context, until time.Time, rec *recorder, tr *tracer, traced *bool,
	run func(context.Context, time.Time, *recorder)) time.Duration {
	refRec := newRecorder()
	refStart := time.Now()
	run(ctx, refStart.Add(until.Sub(refStart)/3), refRec)
	refWall := time.Since(refStart)

	*traced = true
	tr.on.Store(true)
	start := time.Now()
	run(ctx, until, rec)
	elapsed := time.Since(start)
	tr.on.Store(false)
	*traced = false
	tr.set("bench.trace_overhead_share",
		ratio(elapsed.Seconds()/float64(rec.attempted), refWall.Seconds()/float64(refRec.attempted))-1)
	return elapsed
}

// ---- HTTP spans ----

type opKey struct{}

// withOp tags ctx with the operation its requests serve.
func withOp(ctx context.Context, op string) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opFrom(ctx context.Context) string {
	op, _ := ctx.Value(opKey{}).(string)
	return op
}

// route names the API call a request makes, or "" for calls the benchmark
// does not attribute (probes, stats, event streams).
func route(r *http.Request) string {
	p := strings.Trim(r.URL.Path, "/")
	parts := strings.Split(p, "/")
	switch {
	case r.Method == http.MethodPost && p == "v1/jobs":
		if strings.HasPrefix(r.Header.Get("Content-Type"), service.TraceContentType) {
			return "trace_submit"
		}
		return "submit"
	case r.Method == http.MethodGet && len(parts) == 3 && parts[1] == "jobs":
		return "status"
	case r.Method == http.MethodGet && len(parts) == 4 && parts[1] == "jobs" && parts[3] == "trace":
		return "job_trace"
	case r.Method == http.MethodGet && len(parts) == 3 && parts[1] == "results":
		return "result"
	case r.Method == http.MethodPost && p == "v1/traces":
		return "trace_open"
	case r.Method == http.MethodPut && len(parts) == 5 && parts[1] == "traces" && parts[3] == "chunks":
		return "chunk"
	case r.Method == http.MethodPost && len(parts) == 4 && parts[1] == "traces" && parts[3] == "commit":
		return "commit"
	case r.Method == http.MethodPut && len(parts) == 3 && parts[1] == "cache":
		return "cache_put"
	}
	return ""
}

// backendLayer maps a backend route onto the layer that serves it.
func backendLayer(rt string) string {
	switch rt {
	case "chunk", "commit", "trace_open":
		return "ingest." + rt
	case "cache_put":
		return "replica.write"
	}
	return "service." + rt
}

// captureWriter keeps a copy of a response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

// handler wraps a server's API with timing. Each attributed request
// becomes a span whose parent is the caller's hop, named by the traceparent
// header; other requests pass through untouched, so event streams keep
// their flushing writer. When onBody is set it sees each attributed
// response body.
func (t *tracer) handler(track string, layer func(string) string, next http.Handler, onBody func(rt string, body []byte)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := ""
		if t.on.Load() {
			rt = route(r)
		}
		if rt == "" {
			next.ServeHTTP(w, r)
			return
		}
		s := span{track: track, name: layer(rt), start: time.Now()}
		if tc, ok := tracectx.FromHeader(r.Header.Get); ok {
			s.trace, s.parent = tc.TraceID(), tc.SpanID()
			s.id = track + ":" + tc.SpanID()
		} else {
			s.id = t.newID()
		}
		if onBody != nil {
			cw := &captureWriter{ResponseWriter: w}
			next.ServeHTTP(cw, r)
			onBody(rt, cw.buf.Bytes())
		} else {
			next.ServeHTTP(w, r)
		}
		s.end = time.Now()
		t.add(s)
	})
}

// transport times every round trip a client makes. Requests that carry a
// traceparent are named by its span ID, so the server-side span that
// answers them finds its parent.
type transport struct {
	t     *tracer
	track string
	layer string // span name prefix
	base  http.RoundTripper
}

func (tp *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tp.t.on.Load() {
		return tp.base.RoundTrip(r)
	}
	rt := route(r)
	if rt == "" {
		rt = "other"
	}
	s := span{track: tp.track, name: tp.layer + "." + rt, op: opFrom(r.Context()), start: time.Now()}
	if tc, ok := tracectx.Parse(r.Header.Get(tracectx.Header)); ok {
		s.trace, s.id = tc.TraceID(), tc.SpanID()
	} else {
		s.id = tp.t.newID()
	}
	if s.op != "" {
		s.parent = s.op
	}
	resp, err := tp.base.RoundTrip(r)
	s.end = time.Now()
	tp.t.add(s)
	return resp, err
}

// newTransport is a private connection pool, so each client's
// connections are its own and can be closed with it.
func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// ---- self time ----

type selfRow struct {
	name        string
	calls       int
	total, self time.Duration
	opShare     float64 // self time as a share of all operation time
}

// selfTable aggregates spans by name: calls, total time, and self time
// (a span's duration minus its children's).
func (t *tracer) selfTable() []selfRow {
	spans := t.snapshot()
	child := make(map[string]time.Duration)
	byID := make(map[string]bool, len(spans))
	for _, s := range spans {
		byID[s.id] = true
	}
	for _, s := range spans {
		if s.parent != "" && byID[s.parent] {
			child[s.parent] += s.dur()
		}
	}
	rows := make(map[string]*selfRow)
	var opTotal time.Duration
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &selfRow{name: s.name}
			rows[s.name] = r
		}
		self := s.dur() - child[s.id]
		if self < 0 {
			self = 0
		}
		r.calls++
		r.total += s.dur()
		r.self += self
		if s.parent == "" && strings.HasSuffix(s.name, ".op") {
			opTotal += s.dur()
		}
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		r.opShare = ratio(float64(r.self), float64(opTotal))
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func printSelfTable(out io.Writer, rows []selfRow) {
	fmt.Fprintf(out, "  %-34s %8s %12s %12s %8s\n", "span", "calls", "total_ms", "self_ms", "self/op")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-34s %8d %12.3f %12.3f %8.4f\n",
			r.name, r.calls, ms(r.total), ms(r.self), r.opShare)
	}
}

// writeSpans writes the spans through the repository's span-trace
// encoding and checks that the file parses back.
func writeSpans(path, workload string, spans []span) (int, error) {
	recs := make([]obs.SpanRecord, 0, len(spans))
	for _, s := range spans {
		attrs := []obs.SpanAttr{{Key: "id", Value: s.id}}
		for _, kv := range [][2]string{{"parent", s.parent}, {"op", s.op}, {"trace", s.trace}} {
			if kv[1] != "" {
				attrs = append(attrs, obs.SpanAttr{Key: kv[0], Value: kv[1]})
			}
		}
		recs = append(recs, obs.SpanRecord{Track: s.track, Name: s.name, Start: s.start, Dur: s.dur(), Attrs: attrs})
	}
	data, err := obs.EncodeSpanTrace("perfbench "+workload, recs, map[string]string{"workload": workload})
	if err != nil {
		return 0, fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("writing spans: %w", err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading spans back: %w", err)
	}
	got, _, err := obs.DecodeSpanTrace(back)
	if err != nil {
		return 0, fmt.Errorf("spans file does not parse: %w", err)
	}
	if len(got) != len(recs) {
		return 0, fmt.Errorf("spans file holds %d spans, wrote %d", len(got), len(recs))
	}
	return len(got), nil
}

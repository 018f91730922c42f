package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
)

// defaultTraceStoreCap bounds how many recent submissions keep their
// gateway-side forwarding spans for GET /v1/jobs/{id}/trace merging. FIFO
// eviction: job traces are fetched shortly after submission, so recency is
// the right retention policy.
const defaultTraceStoreCap = 256

// traceStore maps gateway job IDs ("backend:j-n") to the recorder that
// captured the request's gateway-side spans (request envelope, forward
// attempts, hedges). Recorders are stored live — the request's root span
// ends after the handler returns, and Records() picks it up at read time.
type traceStore struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*obs.SpanRecorder
	order []string // insertion order, oldest first
}

func newTraceStore(capacity int) *traceStore {
	if capacity <= 0 {
		capacity = defaultTraceStoreCap
	}
	return &traceStore{cap: capacity, m: make(map[string]*obs.SpanRecorder)}
}

// put stores a recorder under id, evicting the oldest entry past cap.
func (t *traceStore) put(id string, rec *obs.SpanRecorder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[id]; !ok {
		t.order = append(t.order, id)
	}
	t.m[id] = rec
	for len(t.order) > t.cap {
		delete(t.m, t.order[0])
		t.order = t.order[1:]
	}
}

// records returns the recorded spans for id (nil when unknown or evicted).
func (t *traceStore) records(id string) []obs.SpanRecord {
	t.mu.Lock()
	rec := t.m[id]
	t.mu.Unlock()
	return rec.Records()
}

// tailLoop follows one backend's GET /v1/events stream for the gateway's
// lifetime, re-publishing every event into the gateway bus so a single
// subscription at the gateway sees the whole fleet. Connection failures
// back off and reconnect — an unreachable backend costs a retry loop,
// never a crash — and job IDs are rewritten into the gateway namespace so
// anything a watcher sees can be fetched back through the gateway. The
// first connection asks for the backend's whole retained history, so a
// job that finished before the tailer connected still enrolls for
// replication; each reconnect resumes after the last event seen.
func (g *Gateway) tailLoop(b *backend) {
	defer g.tailWG.Done()
	backoff := 500 * time.Millisecond
	const maxBackoff = 5 * time.Second
	var lastSeq uint64
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		err := g.tailOnce(b, &lastSeq)
		select {
		case <-g.stop:
			return
		case <-time.After(backoff):
		}
		if err != nil {
			g.log.Debug("event tail reconnecting", "backend", b.Name, "error", err.Error())
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// tailOnce holds one streaming connection to a backend's /v1/events,
// resuming after *lastSeq and advancing it, until the connection breaks
// or the gateway stops.
func (g *Gateway) tailOnce(b *backend, lastSeq *uint64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-g.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/v1/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastSeq, 10))
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s answered %d to /v1/events", b.Name, resp.StatusCode)
	}
	dec := stream.NewDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			return err
		}
		if ev.Type == stream.TypeHello {
			// Connection artifact of our own subscription, not fleet news.
			continue
		}
		*lastSeq = ev.Seq
		if ev.Job != "" {
			ev.Job = joinJobID(b.Name, ev.Job)
		}
		if ev.Type == stream.TypeJobDone && ev.Detail["state"] == "done" {
			// A sealed result just landed on this backend: enroll its key
			// for replication. Submissions the gateway routed are already
			// tracked; this catches jobs that finished asynchronously.
			if key, ok := g.jobKeys.get(ev.Job); ok {
				g.replica.Track(key, b.Name)
			}
		}
		if ev.UnixMS < g.start.UnixMilli() {
			continue // replayed history from before this gateway existed
		}
		g.bus.Publish(ev)
	}
}

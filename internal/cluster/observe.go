package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"demandrace/internal/obs/stream"
)

// fifoMap is a mutex-guarded map that keeps at most cap keys, evicting
// the oldest-inserted first. The gateway keys two by job ID ("backend:j-n"):
// a job's trace and result are fetched shortly after its submission, so
// recency of insertion is the right retention policy.
type fifoMap[V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[string]V
	order []string // insertion order, oldest first
}

// The caps of the gateway's two fifoMaps: how many recent submissions
// keep their gateway-side spans for GET /v1/jobs/{id}/trace merging, and
// how many keep the cache key read-repair needs (replication itself
// converges through Track/Resync regardless of this index).
const (
	traceStoreCap = 256
	keyIndexCap   = 4096
)

func newFIFOMap[V any](capacity int) *fifoMap[V] {
	return &fifoMap[V]{cap: capacity, m: make(map[string]V)}
}

// put stores v under k, evicting the oldest key past cap.
func (f *fifoMap[V]) put(k string, v V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[k]; !ok {
		f.order = append(f.order, k)
	}
	f.m[k] = v
	for len(f.order) > f.cap {
		delete(f.m, f.order[0])
		f.order = f.order[1:]
	}
}

// get returns k's value (the zero value and false when unknown or evicted).
func (f *fifoMap[V]) get(k string) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	return v, ok
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

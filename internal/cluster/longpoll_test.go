package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"demandrace/internal/obs"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/obs/stream"
	"demandrace/internal/service"
)

// getStatus issues one GET of a job's status (path and query given) and
// decodes the answer.
func getStatus(t *testing.T, base, pathAndQuery string) (int, service.Status) {
	t.Helper()
	resp, err := http.Get(base + pathAndQuery)
	if err != nil {
		t.Fatalf("GET %s: %v", pathAndQuery, err)
	}
	defer resp.Body.Close()
	var st service.Status
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

// TestGatewayLongPollForwardsWait: the gateway forwards ?wait= to the
// owning backend untouched, so one long-poll through it answers the
// terminal status of a slow job as soon as the job ends.
func TestGatewayLongPollForwardsWait(t *testing.T) {
	s, backendTS := startBackend(t)
	_, cl := newGateway(t, Config{Backends: []Backend{{Name: "b1", URL: backendTS.URL}}})
	sub := s.Events().Subscribe(0)
	defer sub.Close()

	st, err := cl.Submit(context.Background(), service.Request{Kernel: "histogram", Scale: 100, Seed: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State.Terminal() {
		t.Fatalf("slow job answered %q at submission", st.State)
	}
	_, remote, _ := splitJobID(st.ID)
	ended := make(chan time.Time, 1)
	go func() {
		for {
			ev, ok := sub.Next(context.Background())
			if !ok {
				return
			}
			if ev.Type == stream.TypeJobDone && ev.Job == remote {
				ended <- time.Now()
				return
			}
		}
	}()

	start := time.Now()
	code, got := getStatus(t, cl.BaseURL, "/v1/jobs/"+st.ID+"?wait=10s")
	answered := time.Now()
	if code != http.StatusOK || got.State != service.StateDone || got.ID != st.ID {
		t.Fatalf("long-poll through the gateway = %d %+v, want 200 done for %s", code, got, st.ID)
	}
	if took := answered.Sub(start); took > 5*time.Second {
		t.Fatalf("long-poll took %v against a 10s bound", took)
	}
	var end time.Time
	select {
	case end = <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never published the job's job_done")
	}
	// The backend closes the job's done channel just before publishing
	// job_done, so the answer may precede the event by a hair.
	if lag := answered.Sub(end); lag > 100*time.Millisecond || lag < -100*time.Millisecond {
		t.Fatalf("long-poll answered %v from the job's end", lag)
	}
}

// lockedBuffer collects log output written from handler goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLongPollStaysOutOfLatencyAccounting: a long-poll that blocks past
// twice the SLO latency is waiting, not slow. It leaves ddserved's SLO
// counters and both tiers' get_job histograms untouched, yet still writes
// its access-log line; a plain status request is measured as before.
func TestLongPollStaysOutOfLatencyAccounting(t *testing.T) {
	const slo = 20 * time.Millisecond
	breg, greg := obs.NewRegistry(), obs.NewRegistry()
	logs := &lockedBuffer{}
	// Workers are never started, so the job stays queued and every
	// long-poll runs out its bound.
	backend := service.NewServer(service.Config{
		Registry: breg, SLOLatency: slo,
		Log: olog.New(olog.Options{Level: slog.LevelDebug, Format: olog.FormatJSON, Output: logs}),
	})
	backendTS := httptest.NewServer(backend.Handler())
	defer backendTS.Close()
	_, cl := newGateway(t, Config{Backends: []Backend{{Name: "b1", URL: backendTS.URL}}, Registry: greg})

	st, err := cl.Submit(context.Background(), service.Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_, remote, _ := splitJobID(st.ID)
	sloRequests := breg.CounterValue(obs.SvcSLORequests)
	wait := fmt.Sprintf("?wait=%s", 3*slo)
	for _, poll := range []struct{ base, id string }{{cl.BaseURL, st.ID}, {backendTS.URL, remote}} {
		start := time.Now()
		code, got := getStatus(t, poll.base, "/v1/jobs/"+poll.id+wait)
		if code != http.StatusOK || got.State != service.StateQueued {
			t.Fatalf("long-poll at %s = %d %q, want 200 queued", poll.base, code, got.State)
		}
		if took := time.Since(start); took < 2*slo {
			t.Fatalf("long-poll answered after %v, want it held past %v", took, 2*slo)
		}
	}
	backendHist := breg.Histogram(obs.Series(obs.SvcHTTPLatency, "route", "get_job"), obs.LatencyBuckets)
	gateHist := greg.Histogram(obs.Series(obs.GateHTTPLatency, "route", "get_job"), obs.LatencyBuckets)
	if n := backendHist.Count(); n != 0 {
		t.Errorf("ddserved get_job latency observations = %d, want 0", n)
	}
	if n := gateHist.Count(); n != 0 {
		t.Errorf("ddgate get_job latency observations = %d, want 0", n)
	}
	if got := breg.CounterValue(obs.SvcSLOBreaches); got != 0 {
		t.Errorf("ddserved_slo_breaches_total = %d, want 0", got)
	}
	if got := breg.CounterValue(obs.SvcSLORequests); got != sloRequests {
		t.Errorf("ddserved_slo_requests_total moved %d -> %d", sloRequests, got)
	}
	if n := strings.Count(logs.String(), `"route":"get_job"`); n != 2 {
		t.Errorf("ddserved wrote %d get_job access-log lines, want 2", n)
	}

	// Without ?wait= the same route is measured on both tiers.
	if code, _ := getStatus(t, cl.BaseURL, "/v1/jobs/"+st.ID); code != http.StatusOK {
		t.Fatalf("plain status = %d", code)
	}
	if backendHist.Count() != 1 || gateHist.Count() != 1 {
		t.Fatalf("plain status observations: ddserved %d, ddgate %d; want 1 each",
			backendHist.Count(), gateHist.Count())
	}
}

// TestGatewayTailerReplaysEarlyCompletion: a routed job that finishes
// before the gateway's event tailer has connected still triggers
// write-through replication, because the tailer's first connection
// replays the backend's retained events. Events older than the gateway
// are not republished on its bus.
func TestGatewayTailerReplaysEarlyCompletion(t *testing.T) {
	ctx := context.Background()
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	backends := make([]Backend, 2)
	var direct *service.Client // to b1, bypassing the hold
	seeded := make(chan struct{}, len(backends))
	for i := range backends {
		_, ts := startBackend(t)
		// Hold every /v1/events connection until release, and note each
		// key-list fetch the gateway's start-up replica seeding makes.
		held := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/events" {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			ts.Config.Handler.ServeHTTP(w, r)
			if r.URL.Path == "/v1/cache" {
				select {
				case seeded <- struct{}{}:
				default:
				}
			}
		}))
		t.Cleanup(held.Close)
		backends[i] = Backend{Name: fmt.Sprintf("b%d", i+1), URL: held.URL}
		if i == 0 {
			direct = &service.Client{BaseURL: ts.URL}
		}
	}
	t.Cleanup(open) // before the held servers close

	// A job finished before the gateway exists: its events predate it.
	if _, _, err := direct.Run(ctx, service.Request{Kernel: "racy_flag", Seed: 100}); err != nil {
		t.Fatalf("pre-gateway job: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // a later millisecond than its events

	g, cl := newGateway(t, Config{Backends: backends, Replicas: 2})
	g.Start()
	// Seeding imports each backend's key list once; let it finish first,
	// or it could enroll the routed job's key itself.
	for range backends {
		select {
		case <-seeded:
		case <-time.After(5 * time.Second):
			t.Fatal("gateway never seeded replication from its backends")
		}
	}
	req := service.Request{Kernel: "racy_flag", Seed: 101}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	key := req.CacheKey()
	if h := g.Replication().Holders(key); h != nil {
		t.Fatalf("key tracked on %v before any tailer connected", h)
	}

	open()
	deadline := time.Now().Add(5 * time.Second)
	for len(g.Replication().Holders(key)) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("key never replicated: holders %v", g.Replication().Holders(key))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The routed job's history reached the gateway bus; the pre-gateway
	// job's did not.
	evs, _ := g.Events().Replay(0)
	sawRouted := false
	for _, ev := range evs {
		if ev.Job == joinJobID(backends[0].Name, "j-1") {
			t.Fatalf("gateway republished pre-gateway event %+v", ev)
		}
		if ev.Job == st.ID && ev.Type == stream.TypeJobDone {
			sawRouted = true
		}
	}
	if !sawRouted {
		t.Fatalf("routed job's job_done never reached the gateway bus: %+v", evs)
	}
}

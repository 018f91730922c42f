package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/service"
)

// startBackend spins one in-process ddserved node behind httptest.
func startBackend(t *testing.T) (*service.Server, *httptest.Server) {
	t.Helper()
	s := service.NewServer(service.Config{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// newGateway builds a gateway over cfg.Backends, serves it behind
// httptest, and hands back a stock service.Client pointed at it — the
// same client ddrace -submit uses, exercising the "surface-compatible"
// contract. The probe loop is not started; tests drive ProbeNow.
func newGateway(t *testing.T, cfg Config) (*Gateway, *service.Client) {
	t.Helper()
	if cfg.Retry.Backoff == 0 {
		cfg.Retry.Backoff = time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // tests probe manually
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Stop()
	})
	return g, &service.Client{BaseURL: ts.URL}
}

// requestOwnedBy searches seeds until one routes to the wanted backend.
// Routing is a pure function of the content hash, so this is how a test
// steers a job onto a specific node.
func requestOwnedBy(t *testing.T, ring *Ring, owner string) service.Request {
	t.Helper()
	for seed := int64(0); seed < 10000; seed++ {
		req := service.Request{Kernel: "racy_flag", Seed: seed}
		if ring.Owner(req.CacheKey()) == owner {
			return req
		}
	}
	t.Fatalf("no seed in 10000 routes to %s", owner)
	return service.Request{}
}

// TestClusterDeterministicRouting: the same content hash lands on the same
// backend every time, the second submission is that backend's cache hit,
// and result bytes through the gateway match a direct fetch from the node.
func TestClusterDeterministicRouting(t *testing.T) {
	ctx := context.Background()
	backends := make([]Backend, 3)
	direct := make(map[string]*service.Client, 3)
	for i := range backends {
		_, ts := startBackend(t)
		name := fmt.Sprintf("b%d", i+1)
		backends[i] = Backend{Name: name, URL: ts.URL}
		direct[name] = &service.Client{BaseURL: ts.URL}
	}
	g, cl := newGateway(t, Config{Backends: backends})

	req := service.Request{Kernel: "racy_flag", Seed: 7}
	owner := g.Ring().Owner(req.CacheKey())

	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	name, _, ok := splitJobID(st.ID)
	if !ok || name != owner {
		t.Fatalf("job %q routed to %q, ring owner is %q", st.ID, name, owner)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait through gateway: %v", err)
	}
	viaGateway, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result through gateway: %v", err)
	}

	// Resubmission: same hash, same node, served from its cache.
	again, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if n, _, _ := splitJobID(again.ID); n != owner {
		t.Fatalf("resubmission routed to %q, want %q", n, owner)
	}
	if !again.CacheHit {
		t.Fatal("resubmission of an identical request missed the owner's cache")
	}

	// Byte-identity: direct submission to the owner returns the same bytes.
	viaDirect, _, err := direct[owner].Run(ctx, req)
	if err != nil {
		t.Fatalf("direct Run on %s: %v", owner, err)
	}
	if !bytes.Equal(viaGateway, viaDirect) {
		t.Fatal("gateway result differs from the owning backend's result")
	}
}

// TestClusterFailoverOn503: when the owning backend persistently 503s, the
// gateway fails over to the next replica and the submission still lands.
func TestClusterFailoverOn503(t *testing.T) {
	ctx := context.Background()
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(sick.Close)
	_, healthy1 := startBackend(t)
	_, healthy2 := startBackend(t)

	g, cl := newGateway(t, Config{Backends: []Backend{
		{Name: "sick", URL: sick.URL},
		{Name: "h1", URL: healthy1.URL},
		{Name: "h2", URL: healthy2.URL},
	}})
	req := requestOwnedBy(t, g.Ring(), "sick")

	out, _, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatalf("Run with sick owner: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty result after failover")
	}
	if retries := g.reg.CounterValue(obs.GateRetries); retries < 1 {
		t.Fatalf("retries = %d, want >= 1", retries)
	}
}

// TestClusterHedgeCancellation: the owner hangs, the hedge fires after
// HedgeAfter and wins, and the hung attempt's request context is canceled
// so it does not leak.
func TestClusterHedgeCancellation(t *testing.T) {
	ctx := context.Background()
	slowCanceled := make(chan struct{})
	var once atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can detect the
		// client abort (unread body masks disconnect notification).
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hang until the gateway gives up on us
		if once.CompareAndSwap(false, true) {
			close(slowCanceled)
		}
	}))
	t.Cleanup(slow.Close)
	_, healthy := startBackend(t)

	g, cl := newGateway(t, Config{
		Backends: []Backend{
			{Name: "slow", URL: slow.URL},
			{Name: "fast", URL: healthy.URL},
		},
		HedgeAfter: 25 * time.Millisecond,
	})
	req := requestOwnedBy(t, g.Ring(), "slow")

	out, _, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatalf("Run with hung owner: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty result from hedge winner")
	}
	if hedges := g.reg.CounterValue(obs.GateHedges); hedges < 1 {
		t.Fatalf("hedges = %d, want >= 1", hedges)
	}
	if wins := g.reg.CounterValue(obs.GateHedgeWins); wins < 1 {
		t.Fatalf("hedge wins = %d, want >= 1", wins)
	}
	select {
	case <-slowCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("hung attempt was never canceled")
	}
}

// TestCluster429Propagation: backpressure from the key's owner passes
// through untouched — same status, same Retry-After, no gateway retry.
func TestCluster429Propagation(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}` + "\n"))
	}))
	t.Cleanup(busy.Close)
	g, cl := newGateway(t, Config{Backends: []Backend{{Name: "busy", URL: busy.URL}}})

	body, _ := json.Marshal(service.Request{Kernel: "racy_flag"})
	resp, err := http.Post(cl.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want preserved %q", ra, "7")
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil || !strings.Contains(msg.Error, "queue full") {
		t.Fatalf("body not propagated: %v %q", err, msg.Error)
	}
	if retries := g.reg.CounterValue(obs.GateRetries); retries != 0 {
		t.Fatalf("gateway retried backpressure: retries = %d, want 0", retries)
	}
}

// TestGatewayRejectsOversizedMachine: a machine larger than the simulator
// can build is a 400 at the edge; no backend sees the request.
func TestGatewayRejectsOversizedMachine(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(backend.Close)
	_, cl := newGateway(t, Config{Backends: []Backend{{Name: "b1", URL: backend.URL}}})

	for _, body := range []string{`{"kernel":"racy_flag","cores":65}`, `{"kernel":"racy_flag","smt":9}`} {
		resp, err := http.Post(cl.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("backend saw %d requests, want 0", n)
	}
}

// TestClusterHealthEvictionReadmission drives the probe state machine: a
// backend whose /healthz starts failing is evicted after FailAfter
// consecutive probes and readmitted on the first success.
func TestClusterHealthEvictionReadmission(t *testing.T) {
	ctx := context.Background()
	var broken atomic.Bool
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !broken.Load() {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(flappy.Close)
	_, healthy := startBackend(t)

	g, _ := newGateway(t, Config{
		Backends: []Backend{
			{Name: "flappy", URL: flappy.URL},
			{Name: "steady", URL: healthy.URL},
		},
		FailAfter: 2,
	})

	g.ProbeNow(ctx)
	if got := g.Ring().Active(); len(got) != 2 {
		t.Fatalf("active after healthy probe = %v, want both", got)
	}

	broken.Store(true)
	g.ProbeNow(ctx) // strike one: still admitted
	if got := g.Ring().Active(); len(got) != 2 {
		t.Fatalf("evicted after a single failure: %v", got)
	}
	g.ProbeNow(ctx) // strike two: evicted
	if got := g.Ring().Active(); len(got) != 1 || got[0] != "steady" {
		t.Fatalf("active after eviction = %v, want [steady]", got)
	}
	if g.gRing.Value() != 1 {
		t.Fatalf("ring gauge = %d, want 1", g.gRing.Value())
	}

	broken.Store(false)
	g.ProbeNow(ctx)
	if got := g.Ring().Active(); len(got) != 2 {
		t.Fatalf("active after recovery = %v, want both", got)
	}
}

// TestClusterStatsAggregation: the gateway stats document names itself,
// keeps per-backend rows attributable through their node fields, and sums
// job counters across the cluster.
func TestClusterStatsAggregation(t *testing.T) {
	ctx := context.Background()
	backends := make([]Backend, 2)
	for i := range backends {
		_, ts := startBackend(t)
		backends[i] = Backend{Name: fmt.Sprintf("b%d", i+1), URL: ts.URL}
	}
	g, cl := newGateway(t, Config{Backends: backends, Node: "gate-under-test"})

	if _, _, err := cl.Run(ctx, service.Request{Kernel: "racy_flag"}); err != nil {
		t.Fatalf("Run: %v", err)
	}

	cs := g.Stats(ctx)
	if cs.Node != "gate-under-test" {
		t.Fatalf("node = %q", cs.Node)
	}
	if cs.Ring.Members != 2 || len(cs.Ring.Active) != 2 {
		t.Fatalf("ring stats = %+v", cs.Ring)
	}
	if cs.Jobs.Submitted < 1 || cs.Jobs.Completed < 1 {
		t.Fatalf("aggregated jobs = %+v, want >= 1 submitted and completed", cs.Jobs)
	}
	for i, bs := range cs.Backends {
		if bs.Stats == nil {
			t.Fatalf("backend %s stats missing", bs.Name)
		}
		// Satellite: the node field keeps aggregated rows attributable.
		if bs.Stats.Node != "ddserved" {
			t.Fatalf("backend %d node = %q, want default ddserved", i, bs.Stats.Node)
		}
	}

	// The same document is served over HTTP at /v1/stats.
	resp, err := http.Get(cl.BaseURL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var doc ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if doc.Node != "gate-under-test" || doc.Gateway.Forwards < 1 {
		t.Fatalf("HTTP stats doc = node %q, forwards %d", doc.Node, doc.Gateway.Forwards)
	}
}

// TestGatewayHealthEndpoint: 200 while any backend is routable, 503 only
// when the ring is empty.
func TestGatewayHealthEndpoint(t *testing.T) {
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(sick.Close)
	_, healthy := startBackend(t)

	g, cl := newGateway(t, Config{
		Backends: []Backend{
			{Name: "sick", URL: sick.URL},
			{Name: "ok", URL: healthy.URL},
		},
		FailAfter: 1,
	})
	ctx := context.Background()
	g.ProbeNow(ctx)

	get := func() (int, map[string]any) {
		resp, err := http.Get(cl.BaseURL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc
	}

	code, doc := get()
	if code != http.StatusOK || doc["status"] != "degraded" {
		t.Fatalf("one-sick health = %d %v, want 200 degraded", code, doc)
	}

	g.Ring().Evict("ok")
	g.byName["ok"].setHealth(HealthDown)
	code, doc = get()
	if code != http.StatusServiceUnavailable || doc["status"] != "down" {
		t.Fatalf("all-down health = %d %v, want 503 down", code, doc)
	}
}

// TestGatewayTraceOptionsShareCacheKey: a trace uploaded twice with replay
// options in its query routes to the ring owner of the backend's own cache
// key, and the second upload is that backend's 200 cache hit — the gateway
// and the backend parse the same options into the same key.
func TestGatewayTraceOptionsShareCacheKey(t *testing.T) {
	ctx := context.Background()
	backends := make([]Backend, 3)
	for i := range backends {
		_, ts := startBackend(t)
		backends[i] = Backend{Name: fmt.Sprintf("b%d", i+1), URL: ts.URL}
	}
	g, cl := newGateway(t, Config{Backends: backends})
	raw := recordRacyTrace(t)
	owner := g.Ring().Owner(service.TraceCacheKey(raw, service.TraceOptions{FullVC: true, MaxReports: 3}))

	upload := func() (int, service.Status) {
		t.Helper()
		resp, err := http.Post(cl.BaseURL+"/v1/jobs?fullvc=1&max_reports=3",
			service.TraceContentType, bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("trace upload: %v", err)
		}
		defer resp.Body.Close()
		var st service.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding upload status: %v", err)
		}
		return resp.StatusCode, st
	}
	_, first := upload()
	if _, err := cl.Wait(ctx, first.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	code, second := upload()
	if code != http.StatusOK || !second.CacheHit {
		t.Fatalf("second upload = %d %+v, want a 200 cache hit", code, second)
	}
	for _, st := range []service.Status{first, second} {
		if name, _, _ := splitJobID(st.ID); name != owner {
			t.Fatalf("upload %s routed away from the key's owner %s", st.ID, owner)
		}
	}
}

// TestGatewayErrorsCountUnreachableOwner: a status poll whose owner is
// down is a gateway-made 502, counted in ddgate_errors_total.
func TestGatewayErrorsCountUnreachableOwner(t *testing.T) {
	ctx := context.Background()
	_, ts1 := startBackend(t)
	_, ts2 := startBackend(t)
	g, cl := newGateway(t, Config{Backends: []Backend{
		{Name: "b1", URL: ts1.URL},
		{Name: "b2", URL: ts2.URL},
	}})
	st, err := cl.Submit(ctx, requestOwnedBy(t, g.Ring(), "b1"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	before := g.reg.CounterValue(obs.GateErrors)
	ts1.Close()

	resp, err := http.Get(cl.BaseURL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("poll with a dead owner = %d, want 502", resp.StatusCode)
	}
	if after := g.reg.CounterValue(obs.GateErrors); after != before+1 {
		t.Fatalf("ddgate_errors_total = %d, want %d", after, before+1)
	}
}

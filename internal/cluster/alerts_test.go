package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/alert"
	"demandrace/internal/obs/stream"
)

// flappyBackend is a fake ddserved whose health flips under test control:
// healthy, it answers /healthz and serves a canned /v1/alerts document;
// broken, every route answers 500 so probes fail.
func flappyBackend(t *testing.T, node string, doc alert.Doc) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	broken := &atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		switch r.URL.Path {
		case "/v1/alerts":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(doc)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"status":"ok"}`))
		}
	}))
	t.Cleanup(ts.Close)
	return ts, broken
}

// TestRingEvictionAlertLifecycle drives the compiled-in ring rule through
// a backend outage: eviction fires ring-backend-evicted on the gateway's
// engine and bus, readmission resolves it.
func TestRingEvictionAlertLifecycle(t *testing.T) {
	ctx := context.Background()
	b1, _ := flappyBackend(t, "b1", alert.Doc{Node: "b1"})
	b2, broken := flappyBackend(t, "b2", alert.Doc{Node: "b2"})

	g, _ := newGateway(t, Config{
		Backends:   []Backend{{Name: "b1", URL: b1.URL}, {Name: "b2", URL: b2.URL}},
		FailAfter:  1,
		TSInterval: time.Hour, // ticks driven manually below
	})
	sub := g.Events().Subscribe(32)
	defer sub.Close()

	// Healthy fleet: probe, tick, nothing alerts.
	g.ProbeNow(ctx)
	g.TimeSeries().CollectNow()
	if got := g.Alerts().Active(); len(got) != 0 {
		t.Fatalf("healthy fleet alerted: %+v", got)
	}

	// Kill b2: one failed probe (FailAfter 1) evicts it; the next tick
	// sees the membership gauge below strength and fires immediately
	// (the ring rule has no For).
	broken.Store(true)
	g.ProbeNow(ctx)
	g.TimeSeries().CollectNow()
	active := g.Alerts().Active()
	if len(active) == 0 || active[0].Rule != "ring-backend-evicted" || active[0].State != alert.StateFiring {
		t.Fatalf("active after eviction = %+v, want firing ring-backend-evicted first", active)
	}
	if active[0].Severity != alert.SevCritical || active[0].Node != g.Config().Node {
		t.Fatalf("ring alert = %+v", active[0])
	}

	// Recover b2: readmitted on the next successful probe, resolved on the
	// next tick.
	broken.Store(false)
	g.ProbeNow(ctx)
	g.TimeSeries().CollectNow()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if active := g.Alerts().Active(); len(active) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring alert never resolved: %+v", g.Alerts().Active())
		}
		g.TimeSeries().CollectNow()
		time.Sleep(5 * time.Millisecond)
	}
	hist := g.Alerts().History()
	if len(hist) == 0 || hist[0].Rule != "ring-backend-evicted" {
		t.Fatalf("history = %+v", hist)
	}

	// The gateway bus carried exactly one firing and one resolved edge for
	// the ring rule (ring_change events interleave; filter them out).
	var edges []string
	readCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	for len(edges) < 2 {
		ev, ok := sub.Next(readCtx)
		if !ok {
			t.Fatalf("bus edges = %v, want [alert_firing alert_resolved]", edges)
		}
		if (ev.Type == stream.TypeAlertFiring || ev.Type == stream.TypeAlertResolved) &&
			ev.Detail["rule"] == "ring-backend-evicted" {
			edges = append(edges, ev.Type)
		}
	}
	if edges[0] != stream.TypeAlertFiring || edges[1] != stream.TypeAlertResolved {
		t.Fatalf("bus edges = %v", edges)
	}
}

// TestFleetAlertsAggregation: the gateway's /v1/alerts merges its own
// engine state with every backend's document, keeps node attribution, and
// reports unreachable backends as a partial view.
func TestFleetAlertsAggregation(t *testing.T) {
	backendDoc := alert.Doc{
		Node: "b1",
		Active: []alert.Alert{{
			Rule: "queue-high-water", Severity: alert.SevWarning,
			State: alert.StateFiring, Node: "b1", Value: 60, Threshold: 48,
		}},
		History: []alert.Alert{{
			Rule: "worker-saturation", Severity: alert.SevWarning,
			State: alert.StateResolved, Node: "b1", ResolvedMS: 1111,
		}},
	}
	b1, _ := flappyBackend(t, "b1", backendDoc)
	b2, broken := flappyBackend(t, "b2", alert.Doc{Node: "b2"})
	broken.Store(true) // b2 unreachable from the start

	g, cl := newGateway(t, Config{
		Backends:   []Backend{{Name: "b1", URL: b1.URL}, {Name: "b2", URL: b2.URL}},
		FailAfter:  1,
		TSInterval: time.Hour,
	})
	ctx := context.Background()
	g.ProbeNow(ctx)
	g.TimeSeries().CollectNow() // gateway's own ring rule fires for b2

	resp, err := http.Get(cl.BaseURL + "/v1/alerts")
	if err != nil {
		t.Fatalf("GET /v1/alerts: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc FleetAlerts
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding fleet alerts: %v", err)
	}

	if doc.Node != g.Config().Node {
		t.Fatalf("doc node = %q", doc.Node)
	}
	if doc.AlertErrors != 1 {
		t.Fatalf("alert_errors = %d, want 1 (b2 down)", doc.AlertErrors)
	}
	// Both the gateway's ring alert and b1's queue alert are present, each
	// attributed to its node, firing entries first.
	byRule := map[string]alert.Alert{}
	for i, a := range doc.Active {
		// The dead backend's probe rule rides along as pending (its For has
		// not elapsed); firing alerts must sort ahead of it.
		if a.State == alert.StateFiring && i > 0 && doc.Active[i-1].State != alert.StateFiring {
			t.Fatalf("firing alert sorted after pending: %+v", doc.Active)
		}
		byRule[a.Rule] = a
	}
	if byRule["ring-backend-evicted"].State != alert.StateFiring ||
		byRule["queue-high-water"].State != alert.StateFiring {
		t.Fatalf("expected firing alerts missing: %+v", doc.Active)
	}
	if a, ok := byRule["ring-backend-evicted"]; !ok || a.Node != g.Config().Node {
		t.Fatalf("gateway ring alert = %+v (%v)", a, ok)
	}
	if a, ok := byRule["queue-high-water"]; !ok || a.Node != "b1" || a.Value != 60 {
		t.Fatalf("backend alert = %+v (%v)", a, ok)
	}
	// b1's resolved history rides along.
	if len(doc.History) != 1 || doc.History[0].Rule != "worker-saturation" || doc.History[0].Node != "b1" {
		t.Fatalf("history = %+v", doc.History)
	}
	// Per-backend rows: b1 healthy with one firing alert, b2 errored.
	if len(doc.Backends) != 2 {
		t.Fatalf("backend rows = %+v", doc.Backends)
	}
	rows := map[string]BackendAlertStats{}
	for _, r := range doc.Backends {
		rows[r.Name] = r
	}
	if r := rows["b1"]; r.Error != "" || r.Active != 1 || r.Firing != 1 {
		t.Fatalf("b1 row = %+v", r)
	}
	if r := rows["b2"]; r.Error == "" || r.Active != 0 {
		t.Fatalf("b2 row = %+v", r)
	}
	// The gateway serves its own rules (backends serve theirs).
	if len(doc.Rules) != len(alert.GatewayDefaults(2, []string{"b1", "b2"})) {
		t.Fatalf("rules = %d entries", len(doc.Rules))
	}

	// The gateway's dashboard serves the same console as a backend's.
	dresp, err := http.Get(cl.BaseURL + "/v1/dashboard")
	if err != nil {
		t.Fatalf("GET /v1/dashboard: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status = %d", dresp.StatusCode)
	}
}

// TestStatsErrorsGaugeFeedsRule: a partial stats fan-out sets the
// ddgate_stats_errors gauge, which the fleet-stats-partial rule fires on
// at the next tick.
func TestStatsErrorsGaugeFeedsRule(t *testing.T) {
	b1, broken := flappyBackend(t, "b1", alert.Doc{Node: "b1"})
	broken.Store(true)
	g, _ := newGateway(t, Config{
		Backends:     []Backend{{Name: "b1", URL: b1.URL}},
		FailAfter:    99, // keep it in the ring: this test is about stats, not eviction
		StatsTimeout: 200 * time.Millisecond,
		TSInterval:   time.Hour,
	})
	g.Stats(context.Background()) // fan-out fails, gauge records it
	g.TimeSeries().CollectNow()
	active := g.Alerts().Active()
	found := false
	for _, a := range active {
		if a.Rule == "fleet-stats-partial" && a.State == alert.StateFiring {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet-stats-partial not firing after failed fan-out: %+v", active)
	}
}

// TestBackendNamesKeepDistinctSeries: backend names that differ only in
// bytes a metric name cannot hold ("a.b", "a_b") build a gateway with one
// health series and one probe rule each, and each series follows its own
// backend's probes.
func TestBackendNamesKeepDistinctSeries(t *testing.T) {
	down, broken := flappyBackend(t, "a.b", alert.Doc{})
	broken.Store(true)
	up, _ := flappyBackend(t, "a_b", alert.Doc{})
	reg := obs.NewRegistry()
	g, _ := newGateway(t, Config{
		Backends:  []Backend{{Name: "a.b", URL: down.URL}, {Name: "a_b", URL: up.URL}},
		FailAfter: 1,
		Registry:  reg,
	})
	g.ProbeNow(context.Background())

	health := func(name string) (int64, bool) {
		v, ok := reg.Snapshot().Gauges[obs.Series(obs.GateBackendHealth, "backend", name)]
		return v, ok
	}
	if v, ok := health("a.b"); !ok || v != int64(HealthDown) {
		t.Errorf("a.b health = %d (present %v), want %d", v, ok, HealthDown)
	}
	if v, ok := health("a_b"); !ok || v != int64(HealthOK) {
		t.Errorf("a_b health = %d (present %v), want %d", v, ok, HealthOK)
	}
	rules := map[string]string{}
	for _, r := range g.Alerts().Rules() {
		rules[r.Name] = r.Metric
	}
	for _, name := range []string{"a.b", "a_b"} {
		if m := rules["backend-probe-degraded-"+name]; m != obs.Series(obs.GateBackendHealth, "backend", name) {
			t.Errorf("probe rule for %s watches %q", name, m)
		}
	}
}

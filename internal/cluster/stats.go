package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/replica"
	"demandrace/internal/service"
	"demandrace/internal/tenant"
)

// RingStats describes the routing layer.
type RingStats struct {
	Members int      `json:"members"` // configured
	Active  []string `json:"active"`  // currently routable, sorted
	VNodes  int      `json:"vnodes"`  // per member
}

// GatewayCounters is the forwarding ledger.
type GatewayCounters struct {
	Requests  uint64 `json:"requests"`
	Forwards  uint64 `json:"forwards"`
	Retries   uint64 `json:"retries"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Errors    uint64 `json:"errors"`
}

// BackendStats is one backend's row in the gateway stats document: the
// gateway's view of it (health, forwards) plus the backend's own /v1/stats
// snapshot when it was reachable (nil otherwise). The nested summary keeps
// its own node field, so aggregated numbers stay attributable.
type BackendStats struct {
	Name      string                `json:"name"`
	URL       string                `json:"url"`
	Health    string                `json:"health"`
	Forwarded uint64                `json:"forwarded"`
	Stats     *service.StatsSummary `json:"stats,omitempty"`
}

// ClusterStats is ddgate's GET /v1/stats document. Jobs sums the job
// lifecycle counters across every reachable backend — a cluster total —
// while Backends keeps the per-node breakdown. StatsErrors counts the
// backends whose /v1/stats fetch failed or timed out this aggregation:
// non-zero means the document is a partial view, not a fleet total.
type ClusterStats struct {
	Node          string           `json:"node"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Ring          RingStats        `json:"ring"`
	Gateway       GatewayCounters  `json:"gateway"`
	Jobs          service.JobStats `json:"jobs"`
	StatsErrors   int              `json:"stats_errors"`
	Replication   *replica.Stats   `json:"replication,omitempty"`
	Tenants       []tenant.Stats   `json:"tenants,omitempty"`
	Backends      []BackendStats   `json:"backends"`
}

// Stats assembles the aggregated operational snapshot: gateway-local
// counters plus a fan-out to every backend's /v1/stats.
func (g *Gateway) Stats(ctx context.Context) ClusterStats {
	cs := ClusterStats{
		Node:          g.cfg.Node,
		UptimeSeconds: time.Since(g.start).Seconds(),
		Ring: RingStats{
			Members: len(g.backends),
			Active:  g.ring.Active(),
			VNodes:  g.cfg.VNodes,
		},
		Gateway: GatewayCounters{
			Requests:  g.reg.CounterValue(obs.GateRequests),
			Forwards:  g.reg.CounterValue(obs.GateForwards),
			Retries:   g.reg.CounterValue(obs.GateRetries),
			Hedges:    g.reg.CounterValue(obs.GateHedges),
			HedgeWins: g.reg.CounterValue(obs.GateHedgeWins),
			Errors:    g.reg.CounterValue(obs.GateErrors),
		},
		Backends: make([]BackendStats, len(g.backends)),
	}
	if rs := g.replica.StatsSnapshot(); rs.Factor > 1 {
		cs.Replication = &rs
	}
	cs.Tenants = g.tenants.StatsSnapshot()

	docs, errs := fanOut[service.StatsSummary](ctx, g, "/v1/stats")
	statsErrors := 0
	for i, b := range g.backends {
		cs.Backends[i] = BackendStats{
			Name:      b.Name,
			URL:       b.URL,
			Health:    b.Health().String(),
			Forwarded: b.cForward.Value(),
		}
		if errs[i] != nil {
			statsErrors++
			continue
		}
		cs.Backends[i].Stats = &docs[i]
	}
	cs.StatsErrors = statsErrors
	// Record the partial-view count as a gauge so the fleet-stats-partial
	// alert rule (and the tsdb) can see it; it reflects the most recent
	// fan-out, refreshed on every stats poll.
	g.reg.Gauge(obs.GateStatsErrors).Set(int64(statsErrors))

	for _, bs := range cs.Backends {
		if bs.Stats == nil {
			continue
		}
		cs.Jobs.Submitted += bs.Stats.Jobs.Submitted
		cs.Jobs.Completed += bs.Stats.Jobs.Completed
		cs.Jobs.Failed += bs.Stats.Jobs.Failed
		cs.Jobs.Canceled += bs.Stats.Jobs.Canceled
		cs.Jobs.Rejected += bs.Stats.Jobs.Rejected
		cs.Jobs.Inflight += bs.Stats.Jobs.Inflight
	}
	return cs
}

// maxFleetBodyBytes bounds one backend's answer during a fan-out; 8 MiB is
// orders of magnitude above a full time-series retention window, the
// largest of the fleet documents.
const maxFleetBodyBytes = 8 << 20

// fanOut fetches the JSON document at path from every backend
// concurrently, each fetch bounded by Config.StatsTimeout and
// maxFleetBodyBytes, so one hung or oversized backend costs its own row,
// never the whole document. docs and errs follow the configured backend
// order; errs[i] is nil exactly when docs[i] was decoded.
func fanOut[T any](ctx context.Context, g *Gateway, path string) (docs []T, errs []error) {
	docs = make([]T, len(g.backends))
	errs = make([]error, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, g.cfg.StatsTimeout)
			defer cancel()
			body, err := g.getOK(fctx, b, path, maxFleetBodyBytes)
			if err == nil {
				err = json.Unmarshal(body, &docs[i])
			}
			errs[i] = err
			if errs[i] != nil {
				g.log.Debug("backend fan-out failed", "backend", b.Name, "path", path, "error", errs[i].Error())
			}
		}(i, b)
	}
	wg.Wait()
	return docs, errs
}

// getOK is get for callers that accept only a 200 answer.
func (g *Gateway) getOK(ctx context.Context, b *backend, path string, limit int64) ([]byte, error) {
	status, body, err := g.get(ctx, b, path, limit)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s answered HTTP %d to %s", b.Name, status, path)
	}
	return body, nil
}

// get is the gateway's one bounded upstream GET: it fetches path from b
// and returns the status and the body, which must fit in limit bytes —
// a longer body is an error, never a truncated read.
func (g *Gateway) get(ctx context.Context, b *backend, path string, limit int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(body)) > limit {
		err = fmt.Errorf("cluster: %s answer to %s exceeds %d bytes", b.Name, path, limit)
	}
	return resp.StatusCode, body, err
}

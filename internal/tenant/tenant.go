// Package tenant is the multi-tenant admission layer: API-key → tenant
// resolution, per-tenant token buckets, and weighted fair-share admission
// into a bounded job queue.
//
// The demand-driven thesis of the detector — spend analysis cost only
// where the signal says to — extends to the fleet edge: spend fleet
// capacity only where a tenant's budget says to. Each tenant buys a
// refill rate (sustained jobs/second), a burst (bucket capacity), and a
// weight (its fair share of the queue when the fleet is contended). A
// tenant that exhausts its budget is answered 429 with a Retry-After
// computed from its OWN refill horizon — one tenant's saturation never
// inflates another's backoff.
//
// Both daemons enforce admission with the same Registry type: ddserved
// at its queue (prefix "ddserved_"), ddgate at the fleet edge (prefix
// "ddgate_"). A nil *Registry means tenancy is not configured and every
// operation is a permissive no-op, so call sites wire it unconditionally.
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
)

// HeaderAPIKey is the request header carrying a tenant's API key.
const HeaderAPIKey = "X-API-Key"

// HeaderTenant is the response header carrying the resolved tenant name,
// set on every tenant-attributed response (succeeding and throttled
// alike) so clients can report whose budget a 429 exhausted.
const HeaderTenant = "X-DD-Tenant"

// Config is one tenant's declaration in the -tenants JSON file.
type Config struct {
	// Key is the API key presented in HeaderAPIKey. Required, unique.
	Key string `json:"key"`
	// Name identifies the tenant in metrics, stats, and HeaderTenant.
	// Required, unique.
	Name string `json:"name"`
	// Weight is the tenant's relative share of queue capacity under
	// contention (default 1).
	Weight float64 `json:"weight"`
	// Rate is the token refill rate in jobs per second (default 10).
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity — how many jobs may arrive at once
	// after idleness (default max(Rate, 1)).
	Burst float64 `json:"burst"`
}

// ErrUnknownKey rejects a request whose API key resolves to no tenant
// (including a missing key) while tenancy is configured. Handlers map it
// to HTTP 401.
var ErrUnknownKey = errors.New("tenant: unknown or missing API key")

// ParseConfigs decodes a -tenants JSON document: an array of Config.
func ParseConfigs(data []byte) ([]Config, error) {
	var cfgs []Config
	if err := json.Unmarshal(data, &cfgs); err != nil {
		return nil, fmt.Errorf("tenant: parsing config: %w", err)
	}
	if len(cfgs) == 0 {
		return nil, errors.New("tenant: config declares no tenants")
	}
	seenKey := make(map[string]bool, len(cfgs))
	seenName := make(map[string]bool, len(cfgs))
	for i := range cfgs {
		c := &cfgs[i]
		if c.Key == "" {
			return nil, fmt.Errorf("tenant: entry %d: key is required", i)
		}
		if c.Name == "" {
			return nil, fmt.Errorf("tenant: entry %d: name is required", i)
		}
		if seenKey[c.Key] {
			return nil, fmt.Errorf("tenant: duplicate key %q", c.Key)
		}
		if seenName[c.Name] {
			return nil, fmt.Errorf("tenant: duplicate name %q", c.Name)
		}
		seenKey[c.Key], seenName[c.Name] = true, true
		if c.Weight <= 0 {
			c.Weight = 1
		}
		if c.Rate <= 0 {
			c.Rate = 10
		}
		if c.Burst <= 0 {
			c.Burst = math.Max(c.Rate, 1)
		}
	}
	return cfgs, nil
}

// LoadFile reads and parses a -tenants JSON file.
func LoadFile(path string) ([]Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: reading %s: %w", path, err)
	}
	return ParseConfigs(data)
}

// Tenant is one resolved tenant's live admission state.
type Tenant struct {
	cfg Config

	// Mutable fields below are guarded by the owning Registry's mutex.
	tokens    float64   // current bucket fill
	last      time.Time // last refill instant
	active    int       // queued + running jobs (weighted-share input)
	throttled bool      // inside an exhaustion episode (edge tracking)

	// The tenant's series, resolved once by NewRegistry. The counters are
	// also the usage totals StatsSnapshot reports.
	cJobs      *obs.Counter // admitted submissions
	cBytes     *obs.Counter // accepted payload bytes
	cCacheHits *obs.Counter // submissions served from cache
	cThrottled *obs.Counter // throttled submissions
	gActive    *obs.Gauge
}

// Name returns the tenant's display name.
func (t *Tenant) Name() string {
	if t == nil {
		return ""
	}
	return t.cfg.Name
}

// ctxKey keys the request-scoped tenant in a context.Context.
type ctxKey struct{}

// Into attaches the resolved tenant to a request context so admission
// plumbing deep in the job path (enqueue, terminal accounting) can
// attribute work without threading a parameter through every signature.
// A nil tenant returns ctx unchanged.
func Into(ctx context.Context, t *Tenant) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// From recovers the tenant attached with Into, or nil.
func From(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}

// Options shapes a Registry.
type Options struct {
	// Prefix namespaces the tenant metric families for the enforcing
	// daemon ("ddserved_" or "ddgate_").
	Prefix string
	// Capacity is the job-queue depth the weighted shares divide. 0
	// disables the share check (the gateway edge has no queue; only the
	// token buckets apply there).
	Capacity int
	// Registry receives the tenant_* metrics. Nil builds a private one.
	Registry *obs.Registry
	// Bus, when set, receives tenant_throttled edge events.
	Bus *stream.Bus
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// Registry resolves API keys and arbitrates admission. A nil *Registry
// is a valid "tenancy off" instance: Resolve returns (nil, nil) and every
// other method is a permissive no-op.
type Registry struct {
	opts       Options
	sumWeight  float64
	cThrottled *obs.Counter // every tenant's throttled submissions

	mu     sync.Mutex
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	names  []string // stable display order
}

// NewRegistry builds a registry from validated configs (see ParseConfigs).
func NewRegistry(cfgs []Config, opts Options) *Registry {
	if len(cfgs) == 0 {
		return nil
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	reg, p := opts.Registry, opts.Prefix
	r := &Registry{
		opts:       opts,
		cThrottled: reg.Counter(p + obs.TenantThrottled),
		byKey:      make(map[string]*Tenant, len(cfgs)),
		byName:     make(map[string]*Tenant, len(cfgs)),
	}
	now := opts.Now()
	for _, c := range cfgs {
		t := &Tenant{
			cfg:        c,
			tokens:     c.Burst,
			last:       now,
			cJobs:      reg.Counter(obs.Series(p+obs.TenantJobs, "tenant", c.Name)),
			cBytes:     reg.Counter(obs.Series(p+obs.TenantBytes, "tenant", c.Name)),
			cCacheHits: reg.Counter(obs.Series(p+obs.TenantCacheHits, "tenant", c.Name)),
			cThrottled: reg.Counter(obs.Series(p+obs.TenantThrottledBy, "tenant", c.Name)),
			gActive:    reg.Gauge(obs.Series(p+obs.TenantActive, "tenant", c.Name)),
		}
		r.byKey[c.Key] = t
		r.byName[c.Name] = t
		r.names = append(r.names, c.Name)
		r.sumWeight += c.Weight
	}
	sort.Strings(r.names)
	return r
}

// Enabled reports whether tenancy is configured. Nil-safe.
func (r *Registry) Enabled() bool { return r != nil }

// Resolve maps an API key to its tenant. On a nil registry it returns
// (nil, nil): no tenancy, everything admitted. With tenancy configured,
// an unknown or empty key is ErrUnknownKey.
func (r *Registry) Resolve(apiKey string) (*Tenant, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.byKey[apiKey]
	if t == nil {
		return nil, ErrUnknownKey
	}
	return t, nil
}

// refillLocked advances t's bucket to now. Caller holds r.mu.
func (r *Registry) refillLocked(t *Tenant, now time.Time) {
	if dt := now.Sub(t.last).Seconds(); dt > 0 {
		t.tokens = math.Min(t.cfg.Burst, t.tokens+dt*t.cfg.Rate)
	}
	t.last = now
}

// shareLocked is the weighted admission bound: the tenant's share of the
// queue capacity, never below 1 so a configured tenant is never starved
// outright. Caller holds r.mu.
func (r *Registry) shareLocked(t *Tenant) int {
	if r.opts.Capacity <= 0 {
		return math.MaxInt
	}
	share := t.cfg.Weight / r.sumWeight * float64(r.opts.Capacity)
	return int(math.Max(1, math.Ceil(share)))
}

// Admit decides one submission: it spends a token and checks the
// weighted queue share. On rejection, retryAfter is the tenant's own
// refill horizon in whole seconds (≥ 1) — how long until its bucket holds
// a full token again — and the admitted→throttled edge publishes exactly
// one tenant_throttled event. Nil registry or nil tenant admits.
func (r *Registry) Admit(t *Tenant) (retryAfter int, ok bool) {
	if r == nil || t == nil {
		return 0, true
	}
	r.mu.Lock()
	now := r.opts.Now()
	r.refillLocked(t, now)
	if t.tokens >= 1 && t.active < r.shareLocked(t) {
		t.tokens--
		t.throttled = false
		r.mu.Unlock()
		t.cJobs.Inc()
		return 0, true
	}
	if t.tokens < 1 {
		// Seconds until the bucket refills to one token, by this tenant's
		// own rate; a share rejection (bucket fine, queue slice full)
		// retries on the shortest horizon.
		retryAfter = int(math.Ceil((1 - t.tokens) / t.cfg.Rate))
	}
	if retryAfter < 1 {
		retryAfter = 1
	}
	edge := !t.throttled
	t.throttled = true
	r.mu.Unlock()
	r.cThrottled.Inc()
	t.cThrottled.Inc()
	if edge {
		r.opts.Bus.Publish(stream.Event{
			Type: stream.TypeTenantThrottled,
			Detail: map[string]string{
				"tenant":        t.cfg.Name,
				"retry_after_s": fmt.Sprintf("%d", retryAfter),
			},
		})
	}
	return retryAfter, false
}

// Begin records an admitted job entering the queue; End retires it when
// the job reaches a terminal state. The in-between count is what the
// weighted share bounds. Nil-safe.
func (r *Registry) Begin(t *Tenant) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	t.active++
	t.gActive.Set(int64(t.active))
	r.mu.Unlock()
}

// End retires a job begun with Begin. Nil-safe.
func (r *Registry) End(t *Tenant) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	if t.active > 0 {
		t.active--
	}
	t.gActive.Set(int64(t.active))
	r.mu.Unlock()
}

// Account records usage for an admitted submission: payload bytes and
// whether the result came from cache. Nil-safe.
func (r *Registry) Account(t *Tenant, bytes int64, cacheHit bool) {
	if r == nil || t == nil {
		return
	}
	if bytes > 0 {
		t.cBytes.Add(uint64(bytes))
	}
	if cacheHit {
		t.cCacheHits.Inc()
	}
}

// Stats is one tenant's usage snapshot, served inside /v1/stats.
type Stats struct {
	Name      string  `json:"name"`
	Weight    float64 `json:"weight"`
	Rate      float64 `json:"rate"`
	Burst     float64 `json:"burst"`
	Tokens    float64 `json:"tokens"`
	Active    int     `json:"active"`
	Jobs      uint64  `json:"jobs"`
	Bytes     uint64  `json:"bytes"`
	CacheHits uint64  `json:"cache_hits"`
	Throttled uint64  `json:"throttled"`
}

// StatsSnapshot returns every tenant's usage, sorted by name. Nil-safe
// (nil slice when tenancy is off).
func (r *Registry) StatsSnapshot() []Stats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.opts.Now()
	out := make([]Stats, 0, len(r.names))
	for _, name := range r.names {
		t := r.byName[name]
		r.refillLocked(t, now)
		out = append(out, Stats{
			Name:      t.cfg.Name,
			Weight:    t.cfg.Weight,
			Rate:      t.cfg.Rate,
			Burst:     t.cfg.Burst,
			Tokens:    math.Round(t.tokens*100) / 100,
			Active:    t.active,
			Jobs:      t.cJobs.Value(),
			Bytes:     t.cBytes.Value(),
			CacheHits: t.cCacheHits.Value(),
			Throttled: t.cThrottled.Value(),
		})
	}
	return out
}

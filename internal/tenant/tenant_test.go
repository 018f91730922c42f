package tenant

import (
	"context"
	"errors"
	"testing"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
)

func testConfigs(t *testing.T, doc string) []Config {
	t.Helper()
	cfgs, err := ParseConfigs([]byte(doc))
	if err != nil {
		t.Fatalf("ParseConfigs: %v", err)
	}
	return cfgs
}

func TestParseConfigs(t *testing.T) {
	cfgs := testConfigs(t, `[
		{"key":"k-heavy","name":"heavy","weight":3,"rate":2,"burst":4},
		{"key":"k-light","name":"light"}
	]`)
	if len(cfgs) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(cfgs))
	}
	// Defaults fill in for the sparse entry.
	if l := cfgs[1]; l.Weight != 1 || l.Rate != 10 || l.Burst != 10 {
		t.Fatalf("defaults not applied: %+v", l)
	}
	for _, bad := range []string{
		``, `{}`, `[]`,
		`[{"name":"x"}]`, // missing key
		`[{"key":"k"}]`,  // missing name
		`[{"key":"k","name":"a"},{"key":"k","name":"b"}]`,   // dup key
		`[{"key":"k1","name":"a"},{"key":"k2","name":"a"}]`, // dup name
	} {
		if _, err := ParseConfigs([]byte(bad)); err == nil {
			t.Fatalf("config %q parsed without error", bad)
		}
	}
}

func TestResolve(t *testing.T) {
	r := NewRegistry(testConfigs(t, `[{"key":"k1","name":"t1"}]`), Options{})
	if tn, err := r.Resolve("k1"); err != nil || tn.Name() != "t1" {
		t.Fatalf("Resolve(k1) = %v, %v", tn, err)
	}
	for _, key := range []string{"", "nope"} {
		if _, err := r.Resolve(key); !errors.Is(err, ErrUnknownKey) {
			t.Fatalf("Resolve(%q) err = %v, want ErrUnknownKey", key, err)
		}
	}
	// Nil registry: tenancy off, everything admitted.
	var off *Registry
	if off.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if tn, err := off.Resolve("anything"); tn != nil || err != nil {
		t.Fatalf("nil Resolve = %v, %v", tn, err)
	}
	if ra, ok := off.Admit(nil); !ok || ra != 0 {
		t.Fatalf("nil Admit = %d, %v", ra, ok)
	}
}

// TestAdmitTokenBucket: burst admits, exhaustion throttles with the
// tenant's own refill horizon, and the clock refills deterministically.
func TestAdmitTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	r := NewRegistry(
		testConfigs(t, `[{"key":"k","name":"t","rate":0.5,"burst":2}]`),
		Options{Now: func() time.Time { return now }},
	)
	tn, _ := r.Resolve("k")
	for i := 0; i < 2; i++ {
		if _, ok := r.Admit(tn); !ok {
			t.Fatalf("burst admission %d rejected", i)
		}
	}
	ra, ok := r.Admit(tn)
	if ok {
		t.Fatal("admission past burst succeeded")
	}
	// Empty bucket at 0.5 tokens/s: a full token is 2 seconds away.
	if ra != 2 {
		t.Fatalf("retry-after = %d, want 2 (tenant's own refill horizon)", ra)
	}
	now = now.Add(2 * time.Second)
	if _, ok := r.Admit(tn); !ok {
		t.Fatal("admission after refill rejected")
	}
}

// TestAdmitWeightedShare: with a contended queue, a tenant is capped at
// its weight's share of capacity even with tokens to spare.
func TestAdmitWeightedShare(t *testing.T) {
	r := NewRegistry(
		testConfigs(t, `[
			{"key":"kh","name":"heavy","weight":3,"rate":1000,"burst":1000},
			{"key":"kl","name":"light","weight":1,"rate":1000,"burst":1000}
		]`),
		Options{Capacity: 8},
	)
	heavy, _ := r.Resolve("kh")
	light, _ := r.Resolve("kl")
	// heavy's share: ceil(3/4 × 8) = 6; light's: ceil(1/4 × 8) = 2.
	for i := 0; i < 6; i++ {
		if _, ok := r.Admit(heavy); !ok {
			t.Fatalf("heavy admission %d rejected below its share", i)
		}
		r.Begin(heavy)
	}
	if _, ok := r.Admit(heavy); ok {
		t.Fatal("heavy admitted past its weighted share")
	}
	// light is unaffected by heavy's saturation.
	if _, ok := r.Admit(light); !ok {
		t.Fatal("light rejected while under its own share")
	}
	// Retiring heavy's jobs reopens its share.
	r.End(heavy)
	if _, ok := r.Admit(heavy); !ok {
		t.Fatal("heavy rejected after its active count dropped")
	}
}

// TestThrottleEdgeEvent: an exhaustion episode publishes exactly one
// tenant_throttled event no matter how many rejections it spans; a
// successful admission re-arms the edge.
func TestThrottleEdgeEvent(t *testing.T) {
	now := time.Unix(1000, 0)
	bus := stream.NewBus("test")
	sub := bus.Subscribe(16)
	defer sub.Close()
	r := NewRegistry(
		testConfigs(t, `[{"key":"k","name":"t","rate":1,"burst":1}]`),
		Options{Bus: bus, Now: func() time.Time { return now }},
	)
	tn, _ := r.Resolve("k")
	r.Admit(tn) // spend the burst
	for i := 0; i < 5; i++ {
		if _, ok := r.Admit(tn); ok {
			t.Fatalf("admission %d succeeded with empty bucket", i)
		}
	}
	now = now.Add(time.Second)
	if _, ok := r.Admit(tn); !ok {
		t.Fatal("admission after refill rejected")
	}
	for i := 0; i < 3; i++ {
		r.Admit(tn)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var edges int
	for {
		ev, ok := sub.Next(ctx)
		if !ok {
			break
		}
		if ev.Type == stream.TypeTenantThrottled {
			edges++
			if ev.Detail["tenant"] != "t" {
				t.Fatalf("edge event names tenant %q", ev.Detail["tenant"])
			}
		}
		if edges == 2 {
			break
		}
	}
	if edges != 2 {
		t.Fatalf("saw %d throttle edges, want exactly 2 (one per episode)", edges)
	}
}

// TestMetricsAndStats: admission writes the per-tenant counters and the
// stats snapshot reflects usage.
func TestMetricsAndStats(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(
		testConfigs(t, `[{"key":"k","name":"team a","rate":1,"burst":2}]`),
		Options{Prefix: "ddserved_", Registry: reg},
	)
	tn, _ := r.Resolve("k")
	r.Admit(tn)
	r.Account(tn, 100, false)
	r.Admit(tn)
	r.Account(tn, 50, true)
	if _, ok := r.Admit(tn); ok {
		t.Fatal("third admission succeeded past burst")
	}

	if v := reg.CounterValue(obs.Series("ddserved_"+obs.TenantJobs, "tenant", "team a")); v != 2 {
		t.Fatalf("jobs counter = %d, want 2", v)
	}
	if v := reg.CounterValue(obs.Series("ddserved_"+obs.TenantBytes, "tenant", "team a")); v != 150 {
		t.Fatalf("bytes counter = %d, want 150", v)
	}
	if v := reg.CounterValue(obs.Series("ddserved_"+obs.TenantCacheHits, "tenant", "team a")); v != 1 {
		t.Fatalf("cache-hit counter = %d, want 1", v)
	}
	if v := reg.CounterValue("ddserved_" + obs.TenantThrottled); v != 1 {
		t.Fatalf("aggregate throttle counter = %d, want 1", v)
	}

	stats := r.StatsSnapshot()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	s := stats[0]
	if s.Name != "team a" || s.Jobs != 2 || s.Bytes != 150 || s.CacheHits != 1 || s.Throttled != 1 {
		t.Fatalf("stats snapshot = %+v", s)
	}
}

package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"demandrace/internal/obs"
	"demandrace/internal/tenant"
)

// TestTenancySubmissionGate drives the HTTP tenancy gate end to end:
// admitted submissions land in the per-tenant stats ledger, an exhausted
// budget answers 429 with the tenant's name and refill horizon attached
// to the client-side APIError, a saturated neighbor never touches
// another tenant's budget, and a missing key is 401 while tenancy is on.
func TestTenancySubmissionGate(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		Workers: 1,
		Tenants: []tenant.Config{
			{Key: "hk", Name: "heavy", Weight: 1, Rate: 0.01, Burst: 1},
			{Key: "lk", Name: "light", Weight: 3, Rate: 50, Burst: 20},
		},
	})
	ctx := context.Background()
	heavy := &Client{BaseURL: ts.URL, APIKey: "hk"}
	light := &Client{BaseURL: ts.URL, APIKey: "lk"}

	// Burst 1: the first heavy submission is admitted.
	st, err := heavy.Submit(ctx, Request{Kernel: "racy_flag", Seed: 1})
	if err != nil {
		t.Fatalf("heavy Submit: %v", err)
	}
	if _, err := heavy.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	// The second exhausts the bucket. Zero Options.Retries means the 429
	// surfaces immediately instead of sleeping out Retry-After.
	_, err = heavy.Submit(ctx, Request{Kernel: "racy_flag", Seed: 2})
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("throttled Submit error %T: %v", err, err)
	}
	if apiErr.Code != http.StatusTooManyRequests || apiErr.Tenant != "heavy" || apiErr.RetryAfter < 1 {
		t.Fatalf("throttle error %+v, want 429 attributed to heavy with a positive horizon", apiErr)
	}
	if !strings.Contains(err.Error(), `tenant "heavy"`) {
		t.Fatalf("error string %q does not name the exhausted tenant", err.Error())
	}

	// heavy's saturation is invisible to light.
	for seed := int64(10); seed < 13; seed++ {
		if _, err := light.Submit(ctx, Request{Kernel: "racy_flag", Seed: seed}); err != nil {
			t.Fatalf("light Submit(seed %d) throttled by a neighbor: %v", seed, err)
		}
	}

	// No key at all is 401 while tenancy is configured.
	keyless := &Client{BaseURL: ts.URL}
	_, err = keyless.Submit(ctx, Request{Kernel: "racy_flag", Seed: 3})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Code != http.StatusUnauthorized {
		t.Fatalf("keyless Submit error = %v, want 401 APIError", err)
	}

	// The ledger attributes all of it.
	byName := make(map[string]tenant.Stats)
	for _, tn := range s.Stats().Tenants {
		byName[tn.Name] = tn
	}
	h, l := byName["heavy"], byName["light"]
	if h.Jobs != 1 || h.Throttled != 1 || h.Bytes == 0 {
		t.Fatalf("heavy ledger %+v, want 1 job, 1 throttle, counted bytes", h)
	}
	if l.Jobs != 3 || l.Throttled != 0 {
		t.Fatalf("light ledger %+v, want 3 jobs, 0 throttles", l)
	}
}

// TestTenantSeriesDistinct: tenant names that differ only in bytes a
// metric name cannot hold ("team-a", "team_a") get distinct series, and
// each series reads what the tenant's /v1/stats row reports.
func TestTenantSeriesDistinct(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts, _ := newTestServer(t, Config{
		Workers:  1,
		Registry: reg,
		Tenants: []tenant.Config{
			{Key: "k1", Name: "team-a", Weight: 1, Rate: 10, Burst: 10},
			{Key: "k2", Name: "team_a", Weight: 1, Rate: 10, Burst: 10},
		},
	})
	ctx := context.Background()
	for i, key := range []string{"k1", "k2"} {
		cl := &Client{BaseURL: ts.URL, APIKey: key}
		st, err := cl.Submit(ctx, Request{Kernel: "racy_flag", Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("Submit(%s): %v", key, err)
		}
		if _, err := cl.Wait(ctx, st.ID); err != nil {
			t.Fatalf("Wait(%s): %v", key, err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var sum StatsSummary
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	if len(sum.Tenants) != 2 {
		t.Fatalf("stats tenants = %+v, want two rows", sum.Tenants)
	}
	for _, row := range sum.Tenants {
		series := func(family string) string { return obs.Series("ddserved_"+family, "tenant", row.Name) }
		if row.Jobs != 1 {
			t.Errorf("%s: stats jobs = %d, want 1", row.Name, row.Jobs)
		}
		for _, c := range []struct {
			family string
			want   uint64
		}{
			{obs.TenantJobs, row.Jobs},
			{obs.TenantBytes, row.Bytes},
			{obs.TenantCacheHits, row.CacheHits},
			{obs.TenantThrottledBy, row.Throttled},
		} {
			if got := reg.CounterValue(series(c.family)); got != c.want {
				t.Errorf("%s = %d, want the stats row's %d", series(c.family), got, c.want)
			}
		}
	}
}

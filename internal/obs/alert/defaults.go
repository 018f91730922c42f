package alert

import (
	"fmt"
	"time"

	"demandrace/internal/obs"
)

// ServiceDefaults is the compiled-in rule set for a ddserved instance,
// derived from its configuration: the latency SLO burn, queue and worker
// saturation, cache collapse, and stalled ingest sessions. Used when no
// -alert-rules file overrides it.
func ServiceDefaults(sloTarget float64, queueHighWater int) []Rule {
	if sloTarget <= 0 || sloTarget >= 1 {
		sloTarget = 0.99
	}
	if queueHighWater <= 0 {
		queueHighWater = 1
	}
	rules := []Rule{
		{
			// 14x is the classic fast-burn page threshold: at that rate a
			// month's error budget is gone in about two days.
			Name:        "slo-fast-burn",
			Kind:        KindBurnRate,
			Metric:      obs.SvcSLOBreaches,
			Denominator: []string{obs.SvcSLORequests},
			Value:       14,
			Target:      sloTarget,
			Window:      Duration(5 * time.Minute),
			ShortWindow: Duration(1 * time.Minute),
			For:         Duration(15 * time.Second),
			Severity:    SevCritical,
			Summary:     fmt.Sprintf("request latency SLO (target %.4g) burning error budget >14x too fast", sloTarget),
		},
		{
			Name:     "queue-high-water",
			Kind:     KindThreshold,
			Metric:   obs.SvcQueueDepth,
			Op:       ">=",
			Value:    float64(queueHighWater),
			For:      Duration(10 * time.Second),
			Severity: SevWarning,
			Summary:  fmt.Sprintf("job queue at or past its high-water mark (%d); /healthz reports degraded", queueHighWater),
		},
		{
			Name:     "worker-saturation",
			Kind:     KindThreshold,
			Metric:   obs.SvcWorkerUtilization,
			Op:       ">=",
			Value:    100,
			For:      Duration(30 * time.Second),
			Severity: SevWarning,
			Summary:  "every worker busy for a sustained period; queue wait is growing",
		},
		{
			Name:        "cache-hit-collapse",
			Kind:        KindRatio,
			Metric:      obs.SvcCacheHits,
			Denominator: []string{obs.SvcCacheHits, obs.SvcCacheMisses},
			Op:          "<",
			Value:       0.1,
			Window:      Duration(5 * time.Minute),
			For:         Duration(1 * time.Minute),
			MinCount:    20,
			Severity:    SevWarning,
			Summary:     "result-cache hit ratio collapsed below 10% under real lookup traffic",
		},
		{
			// The throttle counter only exists once -tenants is configured;
			// a missing series reads as condition not met, so the rule is
			// inert on untenanted nodes.
			Name:     "tenant-budget-exhausted",
			Kind:     KindRate,
			Metric:   "ddserved_" + obs.TenantThrottled,
			Op:       ">",
			Value:    0,
			Window:   Duration(1 * time.Minute),
			For:      Duration(10 * time.Second),
			Severity: SevWarning,
			Summary:  "a tenant's admission budget is exhausted; its submissions are answering 429",
		},
		{
			Name:     "ingest-session-stall",
			Kind:     KindRate,
			Metric:   obs.IngestChunks,
			Op:       "==",
			Value:    0,
			Window:   Duration(1 * time.Minute),
			For:      Duration(30 * time.Second),
			When:     &Gate{Metric: obs.IngestSessionsOpen, Op: ">", Value: 0},
			Severity: SevWarning,
			Summary:  "open ingest sessions but no chunks applied for a full window; uploads are stalled",
		},
	}
	return mustNormalize(rules)
}

// GatewayDefaults is the compiled-in rule set for a ddgate instance:
// ring membership loss, per-backend probe degradation, and partial fleet
// stats views.
func GatewayDefaults(members int, backendNames []string) []Rule {
	if members <= 0 {
		members = len(backendNames)
	}
	rules := []Rule{
		{
			Name:     "ring-backend-evicted",
			Kind:     KindThreshold,
			Metric:   obs.GateRingMembers,
			Op:       "<",
			Value:    float64(members),
			Severity: SevCritical,
			Summary:  fmt.Sprintf("hash ring below full strength (%d members configured); traffic is failing over", members),
		},
		{
			Name:     "fleet-stats-partial",
			Kind:     KindThreshold,
			Metric:   obs.GateStatsErrors,
			Op:       ">",
			Value:    0,
			Severity: SevWarning,
			Summary:  "last fleet stats fan-out was partial: one or more backends failed to answer",
		},
		{
			// Mirrors the ddserved rule: inert until the gateway's own
			// admission edge throttles a tenant.
			Name:     "tenant-budget-exhausted",
			Kind:     KindRate,
			Metric:   "ddgate_" + obs.TenantThrottled,
			Op:       ">",
			Value:    0,
			Window:   Duration(1 * time.Minute),
			For:      Duration(10 * time.Second),
			Severity: SevWarning,
			Summary:  "a tenant's admission budget is exhausted at the gateway; its submissions are answering 429",
		},
	}
	for _, name := range backendNames {
		rules = append(rules, Rule{
			Name:     "backend-probe-degraded-" + name,
			Kind:     KindThreshold,
			Metric:   obs.Series(obs.GateBackendHealth, "backend", name),
			Op:       "<=",
			Value:    1, // health gauge: 0 down, 1 degraded, 2 ok
			For:      Duration(10 * time.Second),
			Severity: SevWarning,
			Summary:  "backend " + name + " degraded or failing its health probes",
		})
	}
	return mustNormalize(rules)
}

// mustNormalize validates compiled-in rules; a defect in the defaults is
// a programming error, not a runtime condition.
func mustNormalize(rules []Rule) []Rule {
	out := make([]Rule, 0, len(rules))
	for _, r := range rules {
		nr, err := r.normalized()
		if err != nil {
			panic(err)
		}
		out = append(out, nr)
	}
	return out
}

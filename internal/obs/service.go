package obs

// Canonical metric names for the ddserved service layer. They live here —
// next to the Registry that exports them — so the daemon, its client, and
// the tests agree on one spelling, and so /metrics dashboards survive
// refactors of internal/service.
//
// Naming follows the Prometheus conventions the rest of the repository
// uses: `ddserved_` prefix, `_total` suffix on counters, bare names for
// gauges. Service gauges are single-writer (the daemon's own bookkeeping),
// which is the regime the Gauge type documents as safe.
const (
	// SvcJobsSubmitted counts accepted submissions (cache hits included).
	SvcJobsSubmitted = "ddserved_jobs_submitted_total"
	// SvcJobsCompleted counts jobs that finished with a result.
	SvcJobsCompleted = "ddserved_jobs_completed_total"
	// SvcJobsFailed counts jobs that ended in an execution error.
	SvcJobsFailed = "ddserved_jobs_failed_total"
	// SvcJobsCanceled counts jobs stopped by deadline or cancellation.
	SvcJobsCanceled = "ddserved_jobs_canceled_total"
	// SvcJobsRejected counts submissions bounced by backpressure (HTTP 429)
	// or refused during drain (HTTP 503).
	SvcJobsRejected = "ddserved_jobs_rejected_total"

	// SvcCacheHits / SvcCacheMisses / SvcCacheEvictions instrument the
	// content-addressed result cache.
	SvcCacheHits      = "ddserved_cache_hits_total"
	SvcCacheMisses    = "ddserved_cache_misses_total"
	SvcCacheEvictions = "ddserved_cache_evictions_total"

	// SvcHTTPRequests counts every request the API mux serves.
	SvcHTTPRequests = "ddserved_http_requests_total"

	// SvcQueueDepth is the current number of queued (not yet running) jobs.
	SvcQueueDepth = "ddserved_queue_depth"
	// SvcJobsInflight is the current number of running jobs.
	SvcJobsInflight = "ddserved_jobs_inflight"
	// SvcWorkerUtilization is the running-job share of the worker pool, in
	// whole percent (100 = every worker busy).
	SvcWorkerUtilization = "ddserved_worker_utilization_pct"

	// SvcHTTPLatency is the per-endpoint wall-clock latency histogram
	// family (milliseconds), one series per route key:
	// Series(SvcHTTPLatency, "route", "post_jobs"). Wall-clock values are
	// fine here: the service registry is a diagnostics surface, not a
	// deterministic export.
	SvcHTTPLatency = "ddserved_http_latency_ms"
	// SvcQueueWait is the queued-to-running wall-clock wait histogram
	// (milliseconds).
	SvcQueueWait = "ddserved_queue_wait_ms"
	// SvcJobDuration is the job execution wall-clock histogram
	// (milliseconds), cache hits excluded.
	SvcJobDuration = "ddserved_job_duration_ms"

	// SvcSLORequests / SvcSLOBreaches feed the latency SLO error budget:
	// every measured request, and those slower than the configured
	// threshold.
	SvcSLORequests = "ddserved_slo_requests_total"
	SvcSLOBreaches = "ddserved_slo_breaches_total"

	// SvcStoreHits counts result-cache lookups answered from the on-disk
	// store after an in-memory miss (only possible with -store-dir).
	SvcStoreHits = "ddserved_store_hits_total"
	// SvcStoreErrors counts failed store writes; the job still completes,
	// the result just isn't durable.
	SvcStoreErrors = "ddserved_store_errors_total"
	// SvcStoreEntries / SvcStoreBytes gauge the on-disk store's current
	// footprint.
	SvcStoreEntries = "ddserved_store_entries"
	SvcStoreBytes   = "ddserved_store_bytes"
)

// Tenant metric families are shared by both daemons — ddserved and ddgate
// each enforce admission at their own edge — so the constants here carry
// no daemon prefix; callers prepend theirs ("ddserved_" / "ddgate_"). The
// per-tenant families carry one label, Series(family, "tenant", name).
const (
	// TenantThrottled is the unlabelled count of admissions rejected
	// because a tenant's token budget or weighted queue share was
	// exhausted (HTTP 429); it feeds the tenant-budget-exhausted default
	// alert rule. TenantThrottledBy is the same count per tenant, a family
	// of its own so no family mixes an aggregate with labelled series.
	TenantThrottled   = "tenant_throttled_total"
	TenantThrottledBy = "tenant_throttled_by_tenant_total"
	// TenantJobs / TenantBytes / TenantCacheHits are the per-tenant usage
	// accounting families (jobs admitted, payload bytes accepted,
	// submissions served from cache).
	TenantJobs      = "tenant_jobs_total"
	TenantBytes     = "tenant_bytes_total"
	TenantCacheHits = "tenant_cache_hits_total"
	// TenantActive is the per-tenant active-job gauge family (queued +
	// running), the quantity weighted admission bounds.
	TenantActive = "tenant_active_jobs"
)

package obs

// Canonical metric names for the ddgate cluster gateway. Like the
// ddserved_* names in service.go, they live next to the Registry so the
// gateway, its tests, and the CI smoke assertions agree on one spelling.
//
// Per-backend series are one labelled family each, named with
// Series(family, "backend", name).
const (
	// GateRequests counts every request the gateway mux serves.
	GateRequests = "ddgate_requests_total"
	// GateForwards counts upstream attempts the gateway issued (first
	// tries, retries, and hedges all included).
	GateForwards = "ddgate_forwards_total"
	// GateRetries counts failover retries: attempts re-sent to a different
	// replica after a transient upstream failure.
	GateRetries = "ddgate_retries_total"
	// GateHedges counts hedge requests launched after the latency
	// threshold; GateHedgeWins counts the subset where the hedge answered
	// first.
	GateHedges    = "ddgate_hedges_total"
	GateHedgeWins = "ddgate_hedge_wins_total"
	// GateErrors counts requests the gateway failed itself: every 502 it
	// answered (every candidate backend failed, or a job's or session's
	// owner was unreachable) and every 503 for an empty ring. A 502 a
	// backend answered is relayed, not counted.
	GateErrors = "ddgate_errors_total"

	// GateRingMembers is the current number of routable (non-evicted)
	// backends in the consistent-hash ring.
	GateRingMembers = "ddgate_ring_members"

	// GateBackendHealth is the per-backend health gauge family (0 =
	// down/evicted, 1 = degraded, 2 = ok), e.g.
	// ddgate_backend_health{backend="127.0.0.1-8318"}.
	GateBackendHealth = "ddgate_backend_health"
	// GateBackendRequests is the per-backend forwarded-request counter
	// family.
	GateBackendRequests = "ddgate_backend_requests_total"

	// GateHTTPLatency is the gateway's per-endpoint wall-clock latency
	// histogram family (milliseconds, label "route"), mirroring
	// SvcHTTPLatency.
	GateHTTPLatency = "ddgate_http_latency_ms"

	// GateStatsErrors gauges how many backends failed to answer the last
	// fleet stats fan-out — nonzero means /v1/stats served a partial view.
	GateStatsErrors = "ddgate_stats_errors"

	// ReplicaWrites counts replica copy attempts the gateway issued
	// (write-through of sealed results to ring successors plus handoff
	// re-replication); ReplicaWriteErrors counts the subset that failed
	// after delivery was attempted.
	ReplicaWrites      = "ddgate_replica_writes_total"
	ReplicaWriteErrors = "ddgate_replica_write_errors_total"
	// ReplicaReadRepairs counts result reads that missed the owner and
	// were served from a successor replica (the owner is then queued for
	// back-fill). cluster-smoke's kill-the-owner assertion reads this.
	ReplicaReadRepairs = "ddgate_replica_read_repair_total"
	// ReplicaQueueDepth gauges the pending replication task queue;
	// ReplicaQueueDrops counts tasks discarded because the bounded queue
	// was full (replication is best-effort, reads fall back to repair).
	ReplicaQueueDepth = "ddgate_replica_queue_depth"
	ReplicaQueueDrops = "ddgate_replica_queue_drops_total"
	// ReplicaTracked gauges how many sealed result keys the gateway is
	// responsible for keeping at the configured replication factor.
	ReplicaTracked = "ddgate_replica_tracked_keys"
	// ReplicaUnderReplicated gauges tracked keys below the replication
	// factor, recounted on each resync tick and stats read (nonzero past
	// the handoff deadline degrades the /healthz replication subsystem).
	ReplicaUnderReplicated = "ddgate_replica_under_replicated_keys"
)

package runner

import (
	"demandrace/internal/detector"
	"demandrace/internal/obs"
)

// slowdownBuckets bands per-run slowdowns into the ranges the paper talks
// about: near-native, sync-only territory, demand-driven territory, and
// the continuous-analysis tail.
var slowdownBuckets = []float64{1.1, 1.5, 2, 3, 5, 10, 30, 100}

// analyzedBuckets bands the fraction of accesses analyzed per run.
var analyzedBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9}

// publishMetrics records one finished run into reg under ddrace_* metric
// names. Only counters and histograms are used — their updates commute —
// so a single registry may be shared by many concurrent runs (a -batch or
// -compare fan-out) and still export byte-identical totals for any worker
// count. Gauges are deliberately absent: last-writer-wins would reintroduce
// scheduling order into the exposition. A nil registry is a no-op.
func publishMetrics(reg *obs.Registry, rep *Report) {
	if reg == nil {
		return
	}
	reg.Counter("ddrace_runs_total").Inc()

	// Cost model: the two cycle totals; slowdown is their ratio, banded.
	// The breakdown answers "where do the tool cycles go" per source.
	reg.Counter("ddrace_cycles_native_total").Add(rep.NativeCycles)
	reg.Counter("ddrace_cycles_tool_total").Add(rep.ToolCycles)
	for _, c := range rep.Cost.Components() {
		reg.Counter(obs.Series("ddrace_cost_cycles_total", "component", c.Name)).Add(c.Cycles)
	}
	reg.Histogram("ddrace_run_slowdown", slowdownBuckets).Observe(rep.Slowdown)
	reg.Histogram("ddrace_run_analyzed_fraction", analyzedBuckets).Observe(rep.Demand.AnalyzedFraction())

	// Cache hierarchy.
	cs := rep.Cache
	reg.Counter("ddrace_cache_accesses_total").Add(cs.Accesses)
	reg.Counter("ddrace_cache_l1_hits_total").Add(cs.L1Hits)
	reg.Counter("ddrace_cache_l1_misses_total").Add(cs.L1Misses)
	reg.Counter("ddrace_cache_llc_hits_total").Add(cs.LLCHits)
	reg.Counter("ddrace_cache_memory_fills_total").Add(cs.MemoryFills)
	reg.Counter("ddrace_cache_hitm_total").Add(cs.HITM)
	reg.Counter("ddrace_cache_invalidations_total").Add(cs.Invalidations)
	reg.Counter("ddrace_cache_writebacks_total").Add(cs.Writebacks)
	reg.Counter("ddrace_cache_prefetched_hitm_total").Add(cs.PrefetchedHITM)

	// PMU.
	ps := rep.PMU
	reg.Counter("ddrace_pmu_events_seen_total").Add(ps.Seen)
	reg.Counter("ddrace_pmu_events_counted_total").Add(ps.Counted)
	reg.Counter("ddrace_pmu_events_dropped_total").Add(ps.Dropped)
	reg.Counter("ddrace_pmu_overflows_total").Add(ps.Overflows)
	reg.Counter("ddrace_pmu_samples_delivered_total").Add(ps.Delivered)

	// Demand controller.
	ds := rep.Demand
	reg.Counter("ddrace_demand_samples_total").Add(ds.Samples)
	reg.Counter("ddrace_demand_enables_total").Add(ds.EnableTransitions)
	reg.Counter("ddrace_demand_decays_total").Add(ds.DisableTransitions)
	reg.Counter("ddrace_demand_mem_analyzed_total").Add(ds.MemAnalyzed)
	reg.Counter("ddrace_demand_mem_skipped_total").Add(ds.MemSkipped)
	reg.Counter("ddrace_demand_sync_analyzed_total").Add(ds.SyncAnalyzed)

	// Detector.
	PublishDetectorStats(reg, rep.Detector)
	reg.Counter("ddrace_race_reports_total").Add(uint64(len(rep.Races)))

	// Scheduler.
	reg.Counter("ddrace_sched_steps_total").Add(rep.Steps)
}

// PublishDetectorStats adds one detector's work counters to reg under the
// ddrace_detector_* names — the same names publishMetrics uses, so callers
// that run a detector outside a full runner.Run (the service's trace-replay
// jobs) land in the same exposition series. A nil registry is a no-op.
func PublishDetectorStats(reg *obs.Registry, dt detector.Stats) {
	if reg == nil {
		return
	}
	reg.Counter("ddrace_detector_reads_total").Add(dt.Reads)
	reg.Counter("ddrace_detector_writes_total").Add(dt.Writes)
	reg.Counter("ddrace_detector_same_epoch_hits_total").Add(dt.SameEpochHits)
	reg.Counter("ddrace_detector_owned_hits_total").Add(dt.OwnedHits)
	reg.Counter("ddrace_detector_epoch_fallbacks_total").Add(dt.EpochFallbacks)
	reg.Counter("ddrace_detector_vc_fallbacks_total").Add(dt.VCFallbacks)
	reg.Counter("ddrace_detector_read_inflations_total").Add(dt.ReadInflations)
	reg.Counter("ddrace_detector_read_spills_total").Add(dt.ReadSpills)
	reg.Counter("ddrace_detector_sync_ops_total").Add(dt.SyncOps)
	reg.Counter("ddrace_detector_races_total").Add(dt.Races)
	reg.Counter("ddrace_detector_suppressed_total").Add(dt.Suppressed)
}

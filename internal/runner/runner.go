// Package runner wires one program through the whole reproduction pipeline:
// deterministic scheduler → cache hierarchy → PMU → demand controller →
// race detectors → cost model, and collects everything the experiments
// report into a single Report.
//
// A Run is a pure function of (program, config): the scheduler is
// deterministic, the PMU's only nondeterminism is seeded, and the analysis
// policy does not perturb the interleaving. Comparing two policies on the
// same program therefore compares them on the *identical* execution, which
// is the property that makes the accuracy experiments meaningful.
//
// Purity also makes Run safe to call from many goroutines at once, on the
// same or different programs: every piece of mutable state (caches, PMU,
// detectors, accumulators) is owned by the call, and the Program is never
// written after construction. The cache hierarchy comes from a pool, but
// it is Reset to its just-constructed state before it is pooled, so reuse
// is invisible to the run. RunPoliciesParallel and ExploreWorkers exploit
// this through internal/parallel's bounded worker pool; their results are
// merged in submission order, so they are drop-in replacements for the
// serial loops with byte-identical output.
package runner

import (
	"context"
	"fmt"
	"sync"

	"demandrace/internal/cache"
	"demandrace/internal/cost"
	"demandrace/internal/deadlock"
	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/lockset"
	"demandrace/internal/obs"
	"demandrace/internal/parallel"
	"demandrace/internal/perf"
	"demandrace/internal/prof"
	"demandrace/internal/program"
	"demandrace/internal/sched"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
)

// Config assembles one run. Zero fields take defaults.
type Config struct {
	// Cache sizes the simulated hierarchy (default cache.DefaultConfig).
	Cache cache.Config
	// Sched controls interleaving; Contexts is forced to the cache's
	// context count.
	Sched sched.Config
	// PMU programs the counters; Contexts and Sel are forced from the
	// cache configuration and the policy.
	PMU perf.Config
	// Demand selects the analysis policy.
	Demand demand.Config
	// Detector configures the happens-before engine.
	Detector detector.Options
	// Cost is the cycle model (default cost.Default).
	Cost cost.Model
	// Lockset additionally runs the Eraser engine over the same gated
	// access stream.
	Lockset bool
	// Tracer, when non-nil, records every executed op for offline replay.
	Tracer *trace.Recorder
	// Deadlock additionally runs the lock-order (potential-deadlock)
	// engine over the analyzed lock operations.
	Deadlock bool
	// Trace, when non-nil, records cycle-timestamped pipeline telemetry
	// (HITMs, PMU overflows and skidded deliveries, mode transitions,
	// race reports) across every stage. Timestamps come from the cost
	// model's tool clock, so traces are deterministic.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the run's counters at completion.
	// Only counters and histograms are published, so one registry may be
	// shared across parallel runs and still export deterministic totals.
	Metrics *obs.Registry
	// Prof, when non-nil, samples (thread, analysis-mode, kernel-site)
	// every N simulated cycles against the cost model's tool clock. The
	// resulting profile is deterministic and lands in Report.Profile.
	Prof *prof.Profiler
}

// DefaultConfig is a 4-core machine running the paper's demand-driven
// policy at its default operating point.
func DefaultConfig() Config {
	cc := cache.DefaultConfig()
	return Config{
		Cache:  cc,
		Sched:  sched.DefaultConfig(cc.Contexts()),
		PMU:    perf.DefaultConfig(cc.Contexts()),
		Demand: demand.DefaultConfig(),
		Cost:   cost.Default(),
	}
}

// WithPolicy returns a copy of c running under kind.
func (c Config) WithPolicy(kind demand.PolicyKind) Config {
	c.Demand.Kind = kind
	return c
}

func (c Config) normalized() Config {
	if c.Cache.Cores == 0 {
		c.Cache = cache.DefaultConfig()
	}
	if c.Sched.Quantum == 0 {
		c.Sched = sched.DefaultConfig(c.Cache.Contexts())
	}
	c.Sched.Contexts = c.Cache.Contexts()
	if c.PMU.SampleAfter == 0 {
		c.PMU = perf.DefaultConfig(c.Cache.Contexts())
	}
	c.PMU.Contexts = c.Cache.Contexts()
	if c.Demand.Kind == demand.Hybrid {
		// The hybrid trigger uses two real hardware counters — HITM and
		// received invalidations — each with its own overflow threshold,
		// as the four-counter PMU allows.
		c.PMU.Sel = perf.SelHITM
		c.PMU.Extra = []perf.CounterConfig{{Sel: perf.SelInvalidation, SampleAfter: c.PMU.SampleAfter}}
	} else {
		c.PMU.Sel = c.Demand.Kind.Selector()
		c.PMU.Extra = nil
	}
	if c.Cost.AnalysisMem == 0 {
		c.Cost = cost.Default()
	}
	return c
}

// Report is the complete result of one run.
type Report struct {
	Program string
	Policy  demand.PolicyKind

	// NativeCycles and ToolCycles are the cost model's totals; Slowdown is
	// their ratio. Cost attributes the tool cycles by source.
	NativeCycles uint64
	ToolCycles   uint64
	Slowdown     float64
	Cost         cost.Breakdown

	// Races are the happens-before reports.
	Races []detector.Report
	// LocksetReports are the Eraser engine's findings (when enabled).
	LocksetReports []lockset.Report
	// DeadlockReports are the lock-order engine's findings (when enabled).
	DeadlockReports []deadlock.Report

	// MemOps is the number of executed data accesses; SharedHITM of those
	// were served by a remote Modified line, SharedPeer by any peer cache.
	MemOps     uint64
	SharedHITM uint64
	SharedPeer uint64

	Cache cache.Stats
	// Cores holds each simulated core's access profile.
	Cores  []cache.CoreStats
	PMU    perf.Stats
	Demand demand.Stats
	// Threads holds per-thread analysis residency.
	Threads  []demand.ThreadResidency
	Detector detector.Stats
	// Steps is the scheduler's executed-op count.
	Steps uint64
	// Timeline holds each thread's fast/analysis spans in simulated
	// cycles, derived from the telemetry trace (nil unless Config.Trace
	// was set). The report package renders it as the mode-timeline
	// section.
	Timeline []obs.Span
	// Profile is the deterministic cycle profile (nil unless Config.Prof
	// was set): sample counts by (thread, mode, kernel site), ready for
	// folded-stack export.
	Profile *prof.Profile `json:",omitempty"`
}

// SharingFraction is the fraction of data accesses that hit a remote
// Modified line — the paper's "how rare is sharing" statistic.
func (r *Report) SharingFraction() float64 {
	if r.MemOps == 0 {
		return 0
	}
	return float64(r.SharedHITM) / float64(r.MemOps)
}

// RacyAddrs returns the distinct racy words.
func (r *Report) RacyAddrs() map[string]bool {
	m := map[string]bool{}
	for _, rc := range r.Races {
		m[rc.Addr.String()] = true
	}
	return m
}

func (r *Report) String() string {
	return fmt.Sprintf("%s[%s]: slowdown %.2f×, %d races, %.4f shared",
		r.Program, r.Policy, r.Slowdown, len(r.Races), r.SharingFraction())
}

// executor is the sched.Executor gluing the pipeline together.
type executor struct {
	cfg   Config
	prog  *program.Program
	hier  *cache.Hierarchy
	pmu   *perf.PMU
	ctl   *demand.Controller
	det   *detector.Detector
	ls    *lockset.Detector
	dl    *deadlock.Detector
	acc   *cost.Accumulator
	rep   *Report
	track bool // policy != Off: detector active at all
}

func (e *executor) Exec(t vclock.TID, ctx cache.Context, op program.Op) {
	switch op.Kind {
	case program.OpLoad, program.OpStore, program.OpAtomicLoad, program.OpAtomicStore:
		// The instrumentation decision reflects the thread's mode at the
		// op's start; the access's own HITM (if any) can only influence
		// later ops, as on real hardware.
		analyzed := e.ctl.ShouldAnalyze(t, op)
		res := e.hier.Access(ctx, op.Addr, op.Kind.IsWrite())
		e.pmu.Retire(ctx)
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.RecordOp(t, ctx, op, res.HITM, analyzed && e.track)
		}
		e.rep.MemOps++
		if res.HITM {
			e.rep.SharedHITM++
			// Instrumented code observes its own sharing; the controller
			// uses it to keep analysis alive while the PMU is disarmed.
			e.ctl.NoteSharing(t)
		}
		if res.SrcCore >= 0 {
			e.rep.SharedPeer++
		}
		switch op.Kind {
		case program.OpLoad:
			e.acc.Mem(res.Latency, analyzed)
			if analyzed && e.track {
				e.det.OnRead(t, op.Addr)
				if e.ls != nil {
					e.ls.OnRead(t, op.Addr)
				}
			}
		case program.OpStore:
			e.acc.Mem(res.Latency, analyzed)
			if analyzed && e.track {
				e.det.OnWrite(t, op.Addr)
				if e.ls != nil {
					e.ls.OnWrite(t, op.Addr)
				}
			}
		case program.OpAtomicLoad:
			// Atomics are synchronization: the access itself runs on the
			// hardware (and can HITM) while the detector takes the
			// happens-before edge.
			e.acc.Mem(res.Latency, false)
			e.acc.Sync(analyzed)
			if analyzed && e.track {
				e.det.OnAtomicLoad(t, op.Addr)
			}
		case program.OpAtomicStore:
			e.acc.Mem(res.Latency, false)
			e.acc.Sync(analyzed)
			if analyzed && e.track {
				e.det.OnAtomicStore(t, op.Addr)
			}
		}
	case program.OpLock:
		analyzed := e.ctl.ShouldAnalyze(t, op)
		e.acc.Sync(analyzed)
		e.pmu.Retire(ctx)
		e.traceSync(t, ctx, op, analyzed)
		if analyzed && e.track {
			e.det.OnLock(t, op.Sync)
			if e.ls != nil {
				e.ls.OnLock(t, op.Sync)
			}
			if e.dl != nil {
				e.dl.OnLock(t, op.Sync)
			}
		}
	case program.OpUnlock:
		analyzed := e.ctl.ShouldAnalyze(t, op)
		e.acc.Sync(analyzed)
		e.pmu.Retire(ctx)
		e.traceSync(t, ctx, op, analyzed)
		if analyzed && e.track {
			e.det.OnUnlock(t, op.Sync)
			if e.ls != nil {
				e.ls.OnUnlock(t, op.Sync)
			}
			if e.dl != nil {
				e.dl.OnUnlock(t, op.Sync)
			}
		}
	case program.OpSignal:
		analyzed := e.ctl.ShouldAnalyze(t, op)
		e.acc.Sync(analyzed)
		e.pmu.Retire(ctx)
		e.traceSync(t, ctx, op, analyzed)
		if analyzed && e.track {
			e.det.OnSignal(t, op.Sync)
		}
	case program.OpWait:
		analyzed := e.ctl.ShouldAnalyze(t, op)
		e.acc.Sync(analyzed)
		e.pmu.Retire(ctx)
		e.traceSync(t, ctx, op, analyzed)
		if analyzed && e.track {
			e.det.OnWait(t, op.Sync)
		}
	case program.OpCompute:
		e.acc.Compute(op.N)
		e.pmu.Retire(ctx)
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.RecordOp(t, ctx, op, false, false)
		}
	case program.OpMark:
		// Region annotations are free metadata: they retag the thread for
		// subsequent race reports under every policy that tracks at all.
		label := e.prog.LabelOf(op)
		if e.track {
			e.det.SetRegion(t, label)
		}
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.RecordMark(t, ctx, label)
		}
		e.cfg.Prof.Mark(int(t), label)
	}
	if e.cfg.Prof != nil {
		// The op above advanced the tool clock; attribute any sampling
		// boundaries it crossed to the thread that was executing.
		e.cfg.Prof.Tick(int(t), e.ctl.Analyzing(t))
	}
}

func (e *executor) traceSync(t vclock.TID, ctx cache.Context, op program.Op, analyzed bool) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.RecordOp(t, ctx, op, false, analyzed && e.track)
	}
}

func (e *executor) BarrierRelease(id program.SyncID, parties []vclock.TID) {
	analyzedAny := false
	for _, p := range parties {
		if e.ctl.ShouldAnalyze(p, program.Op{Kind: program.OpBarrier, Sync: id}) {
			analyzedAny = true
			e.acc.Sync(true)
		} else {
			e.acc.Sync(false)
		}
		if e.cfg.Prof != nil {
			e.cfg.Prof.Tick(int(p), e.ctl.Analyzing(p))
		}
	}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.RecordBarrier(id, parties, analyzedAny && e.track)
	}
	if analyzedAny && e.track {
		e.det.OnBarrierRelease(parties)
	}
}

// Run executes p under cfg and returns the full report.
func Run(p *program.Program, cfg Config) (*Report, error) {
	return RunContext(context.Background(), p, cfg)
}

// RunContext is Run with a deadline/cancellation context. The context is
// checked at scheduler-quantum boundaries — the finest point at which the
// simulation can stop without tearing an operation — so even multi-second
// runs abort promptly. A canceled run returns an error satisfying
// errors.Is(err, ctx.Err()); no partial Report is produced, because every
// statistic in a Report is defined over a completed execution.
func RunContext(ctx context.Context, p *program.Program, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()

	hier := acquireHierarchy(cfg.Cache)
	defer releaseHierarchy(hier)
	pmu := perf.New(cfg.PMU)
	hier.SetEventSink(pmu.Observe)

	sc, err := sched.New(p, cfg.Sched)
	if err != nil {
		return nil, err
	}
	ctl := demand.New(cfg.Demand, p.NumThreads(), sc.CtxOf, hier.CoreOf)
	det := detector.ForProgram(p, cfg.Detector)
	acc := cost.NewAccumulator(cfg.Cost)

	if cfg.Trace != nil {
		// Telemetry timestamps are the tool clock: simulated cycles under
		// the attached tool, advancing deterministically with the run.
		cfg.Trace.SetClock(acc.ToolCycles)
		hier.SetTracer(cfg.Trace)
		pmu.SetTracer(cfg.Trace)
		ctl.SetTracer(cfg.Trace)
		det.SetTracer(cfg.Trace)
	}
	if cfg.Prof != nil {
		// The profiler samples against the same tool clock the telemetry
		// uses, so profiles inherit the determinism contract. It also shares
		// the detector's region-ID table: one label namespace per run, and
		// OpMark interns each label once for both consumers.
		cfg.Prof.SetClock(acc.ToolCycles)
		cfg.Prof.ShareSites(det.RegionTable())
		cfg.Prof.SetThreads(p.NumThreads())
	}

	rep := &Report{Program: p.Name, Policy: cfg.Demand.Kind}
	ex := &executor{
		cfg: cfg, prog: p, hier: hier, pmu: pmu, ctl: ctl, det: det, acc: acc,
		rep: rep, track: cfg.Demand.Kind != demand.Off,
	}
	if cfg.Lockset {
		ex.ls = lockset.New(p.NumThreads())
	}
	if cfg.Deadlock {
		ex.dl = deadlock.New(p.NumThreads())
	}

	demandPolicy := cfg.Demand.Kind.Demand()
	pmu.SetHandler(func(s perf.Sample) {
		if demandPolicy {
			acc.Interrupt()
		}
		ctl.OnSample(s)
	})
	if demandPolicy {
		// Mirror the paper: the HITM counter is disarmed while a context's
		// threads are all in analysis mode (the signal is redundant there)
		// and re-armed when a thread decays back to fast execution.
		ctl.SetCounterControl(pmu.SetEnabled)
	}

	if err := sc.RunContext(ctx, ex); err != nil {
		return nil, err
	}
	pmu.DrainAll()

	dst := ctl.Stats()
	if cfg.Demand.Kind == demand.WatchDemand {
		// Watchpoint arming writes a debug register instead of re-patching
		// instrumentation; expiration is free.
		acc.WatchArm(dst.EnableTransitions)
	} else {
		acc.ModeSwitch(dst.EnableTransitions + dst.DisableTransitions)
	}
	if pt := ctl.PageTracker(); pt != nil {
		acc.PageFaults(pt.Stats().Faults)
		acc.ProtSweeps(pt.Stats().Sweeps)
	}

	rep.NativeCycles = acc.NativeCycles()
	rep.ToolCycles = acc.ToolCycles()
	rep.Slowdown = acc.Slowdown()
	rep.Cost = acc.Breakdown()
	rep.Races = det.Reports()
	if ex.ls != nil {
		rep.LocksetReports = ex.ls.Reports()
	}
	if ex.dl != nil {
		rep.DeadlockReports = ex.dl.Reports()
	}
	rep.Cache = hier.Stats()
	rep.Cores = hier.PerCoreStats()
	rep.PMU = pmu.Stats()
	rep.Demand = dst
	rep.Threads = ctl.Residency()
	rep.Detector = det.Stats()
	rep.Steps = sc.Steps()
	if cfg.Trace != nil {
		rep.Timeline = obs.ThreadSpans(cfg.Trace.Events(), acc.ToolCycles(),
			p.NumThreads(), cfg.Demand.Kind == demand.Continuous)
	}
	if cfg.Prof != nil {
		rep.Profile = cfg.Prof.Snapshot(p.Name)
	}
	publishMetrics(cfg.Metrics, rep)
	return rep, nil
}

// hierPool holds reset hierarchies between runs. sync.Pool keeps one per P,
// so each internal/parallel worker tends to get back the hierarchy it
// released: a run's line storage (0.9 MB for the default LLC) is
// allocated once per worker, not once per run.
var hierPool sync.Pool

// acquireHierarchy returns a just-constructed-equivalent hierarchy for cfg,
// reusing a pooled one when its configuration is equal.
func acquireHierarchy(cfg cache.Config) *cache.Hierarchy {
	if h, ok := hierPool.Get().(*cache.Hierarchy); ok && h.Config() == cfg {
		return h
	}
	return cache.New(cfg)
}

// releaseHierarchy resets h before pooling it, which also detaches the
// run's PMU sink and tracer: a pooled hierarchy pins nothing of a finished
// run.
func releaseHierarchy(h *cache.Hierarchy) {
	h.Reset()
	hierPool.Put(h)
}

// RunPolicies runs p once per policy under otherwise identical
// configuration, returning reports keyed by policy order.
func RunPolicies(p *program.Program, cfg Config, kinds ...demand.PolicyKind) ([]*Report, error) {
	out := make([]*Report, 0, len(kinds))
	for _, k := range kinds {
		r, err := Run(p, cfg.WithPolicy(k))
		if err != nil {
			return nil, fmt.Errorf("runner: policy %v: %w", k, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RunPoliciesParallel is RunPolicies fanned out across workers goroutines
// (0 = one per CPU). Each policy's run owns its entire pipeline, so the
// reports — still ordered by policy — are identical to the serial ones.
func RunPoliciesParallel(p *program.Program, cfg Config, workers int, kinds ...demand.PolicyKind) ([]*Report, error) {
	eng := parallel.New(workers)
	return parallel.Map(context.Background(), eng, len(kinds), func(_ context.Context, i int) (*Report, error) {
		r, err := Run(p, cfg.WithPolicy(kinds[i]))
		if err != nil {
			return nil, fmt.Errorf("runner: policy %v: %w", kinds[i], err)
		}
		return r, nil
	})
}

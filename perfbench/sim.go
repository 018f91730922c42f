package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/parallel"
	"demandrace/internal/program"
	"demandrace/internal/runner"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// simPolicies are the two analysis policies every simulator case runs
// under: the paper's demand-driven one and always-on analysis.
var simPolicies = [2]demand.PolicyKind{demand.HITMDemand, demand.Continuous}

// simLargeKernels span the sharing spectrum: three low-sharing kernels and
// three high-sharing ones.
var simLargeKernels = []string{"kmeans", "streamcluster", "swaptions", "canneal", "ferret", "racy_mostly_clean"}

const simThreads = 4

type simCase struct {
	kernel workloads.Kernel
	policy demand.PolicyKind
}

func (c simCase) String() string { return c.kernel.Name + "/" + c.policy.String() }

// simBench drives the library the way cmd/experiments and ddrace -batch
// do: build a kernel, run it, read the report.
type simBench struct {
	o     options
	scale int
	cases []simCase
	ref   [][]byte // reference Report JSON per case, computed at set-up
}

func setupSimSmall(o options) (instance, error) {
	return newSimBench(o, workloads.All(), 1)
}

func setupSimLarge(o options) (instance, error) {
	var ks []workloads.Kernel
	for _, n := range simLargeKernels {
		k, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
		ks = append(ks, k)
	}
	return newSimBench(o, ks, 16)
}

// newSimBench builds one case per kernel and policy and computes each
// case's reference report.
func newSimBench(o options, ks []workloads.Kernel, scale int) (*simBench, error) {
	b := &simBench{o: o, scale: scale}
	for _, k := range ks {
		for _, p := range simPolicies {
			b.cases = append(b.cases, simCase{k, p})
		}
	}
	b.ref = make([][]byte, len(b.cases))
	for i, c := range b.cases {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		rep, err := runner.RunContext(ctx, b.build(c), b.config(c.policy))
		cancel()
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", c, err)
		}
		if b.ref[i], err = json.Marshal(rep); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *simBench) build(c simCase) *program.Program {
	return c.kernel.Build(workloads.Config{Threads: simThreads, Scale: b.scale})
}

// config is the default 4-core machine under policy, seeded from the
// workload seed.
func (b *simBench) config(p demand.PolicyKind) runner.Config {
	cfg := runner.DefaultConfig().WithPolicy(p)
	cfg.PMU.Seed = b.o.seed
	cfg.Sched.Seed = b.o.seed
	cfg.Demand.Seed = b.o.seed
	return cfg
}

// order is the seeded run order of one round: every case once.
func (b *simBench) order(round int) []int {
	rng := rand.New(rand.NewSource(b.o.seed*1_000_003 + int64(round)))
	return rng.Perm(len(b.cases))
}

func (b *simBench) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "sim scale=%d threads=%d seed=%d\n", b.scale, simThreads, b.o.seed)
	for r := 0; r < 4; r++ {
		for _, i := range b.order(r) {
			fmt.Fprintf(h, "%s\n", b.cases[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// check is the output check of one run: the report must equal the case's
// reference byte for byte, and a racy kernel must report a race when
// every access is analyzed.
func (b *simBench) check(i int, rep *runner.Report) error {
	got, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, b.ref[i]) {
		return fmt.Errorf("%s: report differs from its reference", b.cases[i])
	}
	c := b.cases[i]
	if c.kernel.Racy && c.policy == demand.Continuous && len(rep.Races) == 0 {
		return fmt.Errorf("%s: racy kernel reported no race", c)
	}
	return nil
}

// op runs case i once: build, run, check. The latency covers the build
// and the run.
func (b *simBench) op(ctx context.Context, i int) (time.Duration, float64, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	start := time.Now()
	rep, err := runner.RunContext(ctx, b.build(b.cases[i]), b.config(b.cases[i].policy))
	d := time.Since(start)
	if err != nil {
		return d, 0, err
	}
	return d, float64(rep.Steps), b.check(i, rep)
}

// run fans whole rounds over the workers with internal/parallel. The
// round under way at the deadline is finished, so every case runs equally
// often and the latency classes keep a fixed kernel mix.
func (b *simBench) run(ctx context.Context, until time.Time, rec *recorder) {
	eng := parallel.New(b.o.workers)
	for round := 0; time.Now().Before(until); round++ {
		order := b.order(round)
		_ = parallel.ForEach(ctx, eng, len(order), func(ctx context.Context, j int) error {
			i := order[j]
			d, work, err := b.op(ctx, i)
			rec.add(b.cases[i].policy.String(), b.cases[i].String(), d, work, err)
			return nil // failures are counted, not fatal to the round
		})
	}
}

func (b *simBench) table(rec *recorder, elapsed time.Duration) []metric {
	all := rec.samples(simPolicies[0].String(), simPolicies[1].String())
	out := []metric{
		{Name: "sim_ops_per_s", Value: rec.work / elapsed.Seconds(), Unit: "1/s"},
		{Name: "run_ms_p50", Value: quantile(all, 0.5), Unit: "ms", Note: fmt.Sprintf("n=%d", len(all))},
	}
	return append(out, tailMetric("run_ms_p99", all))
}

// tailMetric reports a p99, or marks it dropped when fewer than ten
// samples lie beyond it.
func tailMetric(name string, sorted []float64) metric {
	m := metric{Name: name, Value: quantile(sorted, 0.99), Unit: "ms", Note: fmt.Sprintf("n=%d", len(sorted))}
	if !tailOK(len(sorted), 0.99) {
		m.Note = fmt.Sprintf("dropped: n=%d leaves fewer than 10 samples beyond p99", len(sorted))
	}
	return m
}

func (b *simBench) close() {}

// simLedger accumulates the layer measurements of a traced pass.
type simLedger struct {
	runs, ops                    float64
	buildNs, runNs, opNs         float64
	allocBytes, gcs              float64
	newNs, accessNs              float64
	accesses, hitm               float64
	l1Hits, l1Misses             float64
	overflows, transitions       float64
	memAnalyzed, memSkipped      float64
	steps                        float64
	replayNs, events             float64
	detAccesses, fast, vc, spill float64
}

// runTraced runs whole rounds on one goroutine, so allocation counts are
// the run's own. Each run is followed by a recorded re-run whose op
// stream is re-driven through a fresh cache hierarchy and through the
// detector, timing those layers apart from the rest of the run.
func (b *simBench) runTraced(ctx context.Context, until time.Time, rec *recorder, tr *tracer) {
	var l simLedger
	tr.on.Store(true)
	defer tr.on.Store(false)
	n := 0
	for round := 0; round == 0 || time.Now().Before(until); round++ {
		for _, i := range b.order(round) {
			b.tracedOp(ctx, tr, fmt.Sprintf("run-%d", n), i, rec, &l)
			n++
		}
	}
	tr.set("workloads.build_ms", ratio(l.buildNs, l.runs)/1e6)
	tr.set("runner.ns_per_op", ratio(l.runNs, l.ops))
	tr.set("runner.self_ns_per_op", ratio(l.runNs-l.newNs-l.accessNs-l.replayNs, l.ops))
	tr.set("runner.alloc_bytes_per_run", ratio(l.allocBytes, l.runs))
	tr.set("runner.gc_per_s", ratio(l.gcs, l.runNs/1e9))
	tr.set("cache.new_us", ratio(l.newNs, l.runs)/1e3)
	tr.set("cache.new_share", ratio(l.newNs, l.runNs))
	tr.set("cache.access_ns", ratio(l.accessNs, l.accesses))
	tr.set("cache.hitm_share", ratio(l.hitm, l.accesses))
	tr.set("cache.l1_miss_share", ratio(l.l1Misses, l.l1Hits+l.l1Misses))
	tr.set("perf.overflows_per_kop", ratio(l.overflows, l.ops)*1000)
	tr.set("demand.analyzed_share", ratio(l.memAnalyzed, l.memAnalyzed+l.memSkipped))
	tr.set("demand.transitions_per_kop", ratio(l.transitions, l.ops)*1000)
	tr.set("sched.steps", ratio(l.steps, l.runs))
	tr.set("detector.replay_ns_per_event", ratio(l.replayNs, l.events))
	tr.set("detector.fastpath_share", ratio(l.fast, l.detAccesses))
	tr.set("detector.vc_fallback_share", ratio(l.vc, l.detAccesses))
	tr.set("detector.read_spills", ratio(l.spill, l.runs))
	tr.set("bench.trace_overhead_share", ratio(l.opNs-l.buildNs-l.runNs, l.buildNs+l.runNs))
}

func (b *simBench) tracedOp(ctx context.Context, tr *tracer, id string, i int, rec *recorder, l *simLedger) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	c := b.cases[i]
	cfg := b.config(c.policy)
	opSpan := span{id: id, name: "sim.op", track: "bench", op: id, start: time.Now()}
	defer func() {
		opSpan.end = time.Now()
		tr.add(opSpan)
		l.opNs += float64(opSpan.dur())
	}()

	var p *program.Program
	bs := tr.timed("workloads.build", id, id, func() { p = b.build(c) })
	var (
		m0, m1 runtime.MemStats
		rep    *runner.Report
		err    error
	)
	runtime.ReadMemStats(&m0)
	rs := tr.timed("runner.run", id, id, func() { rep, err = runner.RunContext(ctx, p, cfg) })
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = b.check(i, rep)
	}
	if err != nil {
		rec.add(c.policy.String(), "", 0, 0, err)
		return
	}

	// Record the run's op stream with a second, identical run.
	recd := trace.NewRecorder(p.Name)
	rcfg := cfg
	rcfg.Tracer = recd
	tr.timed("trace.record", id, id, func() { _, err = runner.RunContext(ctx, p, rcfg) })
	if err != nil {
		rec.add(c.policy.String(), "", 0, 0, fmt.Errorf("recorded re-run: %w", err))
		return
	}
	events := recd.Trace().Events

	var h *cache.Hierarchy
	ns := tr.timed("cache.new", id, rs.id, func() { h = cache.New(cfg.Cache) })
	var accesses, hitm, mismatch int
	as := tr.timed("cache.access", id, rs.id, func() {
		for _, e := range events {
			switch e.Kind {
			case program.OpLoad, program.OpStore, program.OpAtomicLoad, program.OpAtomicStore:
				res := h.Access(e.Ctx, e.Addr, e.Kind.IsWrite())
				accesses++
				if res.HITM {
					hitm++
				}
				if res.HITM != e.HITM {
					mismatch++
				}
			}
		}
	})
	var det *detector.Detector
	ds := tr.timed("detector.replay", id, rs.id, func() { det = trace.Replay(recd.Trace(), cfg.Detector) })
	if mismatch > 0 {
		err = fmt.Errorf("%s: re-driven cache disagrees on %d of %d HITM flags", c, mismatch, accesses)
	}
	if dr, want := det.Reports(), rep.Races; err == nil && len(dr) != len(want) {
		err = errors.New(c.String() + ": detector replay found a different race count")
	}
	rec.add(c.policy.String(), c.String(), bs.dur()+rs.dur(), float64(rep.Steps), err)
	if err != nil {
		return
	}

	l.runs++
	l.ops += float64(rep.Steps)
	l.buildNs += float64(bs.dur())
	l.runNs += float64(rs.dur())
	l.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	l.gcs += float64(m1.NumGC - m0.NumGC)
	l.newNs += float64(ns.dur())
	l.accessNs += float64(as.dur())
	l.accesses += float64(accesses)
	l.hitm += float64(hitm)
	for _, cs := range h.PerCoreStats() {
		l.l1Hits += float64(cs.Hits)
		l.l1Misses += float64(cs.Misses)
	}
	l.overflows += float64(rep.PMU.Overflows)
	l.transitions += float64(rep.Demand.EnableTransitions + rep.Demand.DisableTransitions)
	l.memAnalyzed += float64(rep.Demand.MemAnalyzed)
	l.memSkipped += float64(rep.Demand.MemSkipped)
	l.steps += float64(rep.Steps)
	l.replayNs += float64(ds.dur())
	l.events += float64(len(events))
	d := rep.Detector
	l.detAccesses += float64(d.Reads + d.Writes)
	l.fast += float64(d.SameEpochHits + d.OwnedHits)
	l.vc += float64(d.VCFallbacks)
	l.spill += float64(d.ReadSpills)
}

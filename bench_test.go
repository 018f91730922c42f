package demandrace_test

import (
	"bytes"
	"testing"

	"demandrace"
	"demandrace/internal/detector"
	"demandrace/internal/experiments"
	"demandrace/internal/mem"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
)

// One benchmark per reproduced table/figure: each iteration regenerates the
// experiment's data exactly as cmd/experiments prints it. Run with
//
//	go test -bench=. -benchmem
//
// The per-op costs of the component benchmarks at the bottom are the
// FastTrack-vs-full-VC and cache-pipeline ablations DESIGN.md calls out.

func benchExperiment[T any](b *testing.B, fn func(experiments.Options) (T, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := fn(experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Continuous regenerates the continuous-analysis slowdown
// figure (E1).
func BenchmarkFig1Continuous(b *testing.B) { benchExperiment(b, experiments.Fig1) }

// BenchmarkFig2Sharing regenerates the sharing-fraction figure (E2).
func BenchmarkFig2Sharing(b *testing.B) { benchExperiment(b, experiments.Fig2) }

// BenchmarkFig3Hitm regenerates the HITM-fidelity microbenchmarks (E3).
func BenchmarkFig3Hitm(b *testing.B) { benchExperiment(b, experiments.Fig3) }

// BenchmarkFig4Demand regenerates the headline demand-vs-continuous
// comparison (E4).
func BenchmarkFig4Demand(b *testing.B) { benchExperiment(b, experiments.Fig4) }

// BenchmarkTab3Accuracy regenerates the injected-race accuracy table (E5).
func BenchmarkTab3Accuracy(b *testing.B) { benchExperiment(b, experiments.Tab3) }

// BenchmarkFig5Threads regenerates the thread-scaling figure (E6).
func BenchmarkFig5Threads(b *testing.B) { benchExperiment(b, experiments.Fig5) }

// BenchmarkFig6Ablation regenerates the policy/scope ablation (E7).
func BenchmarkFig6Ablation(b *testing.B) { benchExperiment(b, experiments.Fig6) }

// BenchmarkTab4Pmu regenerates the PMU sensitivity table (E8).
func BenchmarkTab4Pmu(b *testing.B) { benchExperiment(b, experiments.Tab4) }

// BenchmarkTab5Sampling regenerates the sampling-vs-demand frontier (E9).
func BenchmarkTab5Sampling(b *testing.B) { benchExperiment(b, experiments.Tab5) }

// ---- per-kernel pipeline benchmarks ----

func benchKernel(b *testing.B, name string, pol demandrace.Policy) {
	b.Helper()
	k, ok := demandrace.KernelByName(name)
	if !ok {
		b.Fatalf("kernel %q missing", name)
	}
	p := k.Build(demandrace.KernelConfig{Threads: 4, Scale: 1})
	cfg := demandrace.DefaultConfig().WithPolicy(pol)
	b.ReportMetric(float64(p.TotalOps()), "progops")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := demandrace.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSwaptionsContinuous measures the full pipeline on the
// best-case kernel under always-on analysis.
func BenchmarkRunSwaptionsContinuous(b *testing.B) {
	benchKernel(b, "swaptions", demandrace.Continuous)
}

// BenchmarkRunSwaptionsDemand measures the same kernel under the paper's
// policy.
func BenchmarkRunSwaptionsDemand(b *testing.B) {
	benchKernel(b, "swaptions", demandrace.HITMDemand)
}

// BenchmarkRunCannealDemand measures the worst-case (constant-sharing)
// kernel under the demand policy.
func BenchmarkRunCannealDemand(b *testing.B) {
	benchKernel(b, "canneal", demandrace.HITMDemand)
}

// ---- detector representation ablation (DESIGN.md choice #3) ----

func benchDetectorReads(b *testing.B, opt detector.Options) {
	b.Helper()
	d := detector.New(4, 1, 0, opt)
	addrs := make([]mem.Addr, 64)
	for i := range addrs {
		addrs[i] = mem.Addr(0x1000 + i*8)
	}
	// Lock-ordered accesses so no races are reported (reporting would
	// short-circuit the interesting paths).
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := vclock.TID(i % 4)
		d.OnLock(t, 0)
		d.OnRead(t, addrs[i%len(addrs)])
		d.OnWrite(t, addrs[i%len(addrs)])
		d.OnUnlock(t, 0)
	}
}

// BenchmarkDetectorFastTrack exercises the epoch-based shadow
// representation.
func BenchmarkDetectorFastTrack(b *testing.B) {
	benchDetectorReads(b, detector.Options{})
}

// BenchmarkDetectorFullVC exercises the DJIT+-style full-vector-clock
// representation; the gap against FastTrack is the paper's detector's
// reason for epochs.
func BenchmarkDetectorFullVC(b *testing.B) {
	benchDetectorReads(b, detector.Options{FullVC: true})
}

// BenchmarkDetectorSameEpochFastPath isolates FastTrack's O(1) common case.
func BenchmarkDetectorSameEpochFastPath(b *testing.B) {
	d := detector.New(2, 0, 0, detector.Options{})
	d.OnWrite(0, 0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnWrite(0, 0x1000)
	}
}

// ---- substrate microbenchmarks ----

func newHierarchy() *demandrace.CacheHierarchy {
	return demandrace.NewCache(demandrace.DefaultCacheConfig())
}

// BenchmarkCacheLocalHit measures the cache simulator's hot path.
func BenchmarkCacheLocalHit(b *testing.B) {
	h := newHierarchy()
	h.Access(0, 0x1000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 0x1000, false)
	}
}

// BenchmarkCacheHITMPingPong measures the coherence slow path: alternating
// writers on one line.
func BenchmarkCacheHITMPingPong(b *testing.B) {
	h := newHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(demandrace.Context(i%2), 0x1000, true)
	}
}

var benchHierarchy *demandrace.CacheHierarchy

// BenchmarkCacheNew measures building the default hierarchy: its
// allocation count is fixed, independent of the LLC's set count.
func BenchmarkCacheNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHierarchy = newHierarchy()
	}
}

// BenchmarkRunSmallSetup runs one short scale-1 kernel back to back, so
// per-run set-up dominates; runs after the first reuse a pooled hierarchy.
func BenchmarkRunSmallSetup(b *testing.B) {
	b.ReportAllocs()
	benchKernel(b, "racy_flag", demandrace.HITMDemand)
}

// BenchmarkFig7Sweep regenerates the sharing-fraction characteristic curve
// (E10).
func BenchmarkFig7Sweep(b *testing.B) { benchExperiment(b, experiments.Fig7) }

// BenchmarkTab6Protocol regenerates the MESI-vs-MOESI ablation (E11).
func BenchmarkTab6Protocol(b *testing.B) { benchExperiment(b, experiments.Tab6) }

// ---- trace decode: the decode.binary and decode.stream ledger rows ----

var uploadTraceRaw []byte

// uploadTrace returns the DRT1 encoding of canneal recorded the way the
// trace-upload benchmark workload records it: 4 threads, scale 32, under
// continuous analysis (about 1.2 MB and 168k events).
func uploadTrace(b *testing.B) []byte {
	b.Helper()
	if uploadTraceRaw == nil {
		k, ok := demandrace.KernelByName("canneal")
		if !ok {
			b.Fatal("kernel canneal missing")
		}
		p := k.Build(demandrace.KernelConfig{Threads: 4, Scale: 32})
		rec := demandrace.NewTraceRecorder(p.Name)
		cfg := demandrace.DefaultConfig().WithPolicy(demandrace.Continuous)
		cfg.Tracer = rec
		if _, err := demandrace.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
			b.Fatal(err)
		}
		uploadTraceRaw = buf.Bytes()
	}
	return uploadTraceRaw
}

// BenchmarkTraceDecode decodes the upload trace in one call, as a batch
// upload does.
func BenchmarkTraceDecode(b *testing.B) {
	raw := uploadTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceStreamDecode feeds the upload trace to a StreamDecoder in
// 1 KiB chunks, so events straddle most chunk boundaries.
func BenchmarkTraceStreamDecode(b *testing.B) {
	const chunk = 1 << 10
	raw := uploadTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := trace.NewStreamDecoder(trace.DefaultDecodeLimits)
		for off := 0; off < len(raw); off += chunk {
			if _, err := d.Feed(raw[off:min(off+chunk, len(raw))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceLiveReplay is a streamed upload's decode and analysis: the
// upload trace fed to a StreamDecoder in 64 KiB chunks, each chunk's
// events applied to a LiveReplay as they complete.
func BenchmarkTraceLiveReplay(b *testing.B) {
	const chunk = 64 << 10
	raw := uploadTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := trace.NewStreamDecoder(trace.DefaultDecodeLimits)
		live := trace.NewLiveReplay(detector.Options{MaxReportsPerAddr: 1})
		for off := 0; off < len(raw); off += chunk {
			evs, err := d.Feed(raw[off:min(off+chunk, len(raw))])
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range evs {
				live.Apply(e)
			}
		}
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

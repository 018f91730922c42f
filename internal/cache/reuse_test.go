package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"demandrace/internal/mem"
	"demandrace/internal/obs"
)

// assertZeroAllocs runs round once to reach steady state, then checks that
// further rounds allocate nothing and that each one moves the counter
// stat(h) reads, so the path under test is really taken.
func assertZeroAllocs(t *testing.T, h *Hierarchy, label string, stat func(Stats) uint64, round func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	round()
	before := stat(h.Stats())
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%s: %.2f allocs per round, want 0", label, allocs)
	}
	if stat(h.Stats()) == before {
		t.Errorf("%s: the rounds never took the path under test", label)
	}
}

// TestZeroAllocAccess pins Access as allocation-free on every path, with a
// sink attached as the PMU attaches one.
func TestZeroAllocAccess(t *testing.T) {
	withSink := func(cfg Config) *Hierarchy {
		h := New(cfg)
		var n int
		h.SetEventSink(func(Event) { n++ })
		return h
	}
	a, b := addr(5, 0), addr(6, 0)

	h := withSink(DefaultConfig())
	h.Access(0, a, true)
	assertZeroAllocs(t, h, "L1 hit", func(s Stats) uint64 { return s.L1Hits }, func() {
		h.Access(0, a, false)
	})

	h = withSink(DefaultConfig())
	assertZeroAllocs(t, h, "HITM ping-pong", func(s Stats) uint64 { return s.HITMStore }, func() {
		h.Access(0, a, true)
		h.Access(1, a, true)
	})

	// Core 1's load demotes core 0's M copy to S (a HITM); core 0's store
	// then upgrades S→M and invalidates core 1.
	h = withSink(DefaultConfig())
	assertZeroAllocs(t, h, "S→M upgrade", func(s Stats) uint64 { return s.Invalidations }, func() {
		h.Access(0, a, true)
		h.Access(1, a, false)
		h.Access(0, a, true)
	})

	// One L1 set of two ways, written round-robin over three lines: every
	// store evicts a dirty line into the LLC.
	h = withSink(Config{Cores: 2, SMT: 1, L1Sets: 1, L1Ways: 2, L2Sets: 8, L2Ways: 4})
	assertZeroAllocs(t, h, "L1 eviction with LLC writeback", func(s Stats) uint64 { return s.Writebacks }, func() {
		for l := uint64(0); l < 3; l++ {
			h.Access(0, addr(l, 0), true)
		}
	})

	// Core 1 dirties line 100 and keeps it in its L1 while core 0 streams
	// through the one-set LLC, so the LLC evicts line 100 and
	// back-invalidates core 1's copy.
	h = withSink(Config{Cores: 2, SMT: 1, L1Sets: 1, L1Ways: 2, L2Sets: 1, L2Ways: 4})
	assertZeroAllocs(t, h, "LLC eviction with back-invalidation", func(s Stats) uint64 { return s.L2Writebacks }, func() {
		h.Access(1, addr(100, 0), true)
		for l := uint64(0); l < 4; l++ {
			h.Access(0, addr(l, 0), false)
		}
	})

	// Core 1's load of line 5 is a HITM whose prefetch silently drains
	// core 0's dirty line 6.
	pf := DefaultConfig()
	pf.NextLinePrefetch = true
	h = withSink(pf)
	assertZeroAllocs(t, h, "prefetch", func(s Stats) uint64 { return s.PrefetchedHITM }, func() {
		h.Access(0, a, true)
		h.Access(0, b, true)
		h.Access(1, a, false)
	})
}

// TestNewAllocsConstant: construction allocates a fixed number of blocks,
// however many sets the LLC has.
func TestNewAllocsConstant(t *testing.T) {
	small := Config{Cores: 4, SMT: 1, L1Sets: 4, L1Ways: 2, L2Sets: 8, L2Ways: 16}
	big := small
	big.L2Sets = 2048
	nSmall := testing.AllocsPerRun(10, func() { New(small) })
	nBig := testing.AllocsPerRun(10, func() { New(big) })
	if nSmall != nBig {
		t.Errorf("New allocates %.0f blocks for an 8-set LLC, %.0f for a 2048-set LLC", nSmall, nBig)
	}
}

// TestResetMatchesNew: a hierarchy that ran one access stream and was Reset
// is indistinguishable from a fresh one on a second stream — every Result,
// every sink event, every counter, and the final line states.
func TestResetMatchesNew(t *testing.T) {
	base := Config{Cores: 4, SMT: 2, L1Sets: 4, L1Ways: 2}
	const lines = 48
	for _, proto := range []Protocol{MESI, MOESI} {
		for _, prefetch := range []bool{false, true} {
			for _, withLLC := range []bool{false, true} {
				cfg := base
				cfg.Protocol, cfg.NextLinePrefetch = proto, prefetch
				if withLLC {
					cfg.L2Sets, cfg.L2Ways = 8, 8
				}
				t.Run(fmt.Sprintf("%v/prefetch=%v/llc=%v", proto, prefetch, withLLC), func(t *testing.T) {
					reused := New(cfg)
					var stale int
					reused.SetEventSink(func(Event) { stale++ })
					tr := obs.NewTracer()
					reused.SetTracer(tr)
					drive(reused, rand.New(rand.NewSource(1)), lines, 5000, nil)
					reused.Reset()
					staleBefore, traceBefore := stale, tr.Len()

					fresh := New(cfg)
					var got, want []Event
					reused.SetEventSink(func(ev Event) { got = append(got, ev) })
					fresh.SetEventSink(func(ev Event) { want = append(want, ev) })
					r1, r2 := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
					var gotRes, wantRes []Result
					drive(reused, r1, lines, 5000, func(res Result) { gotRes = append(gotRes, res) })
					drive(fresh, r2, lines, 5000, func(res Result) { wantRes = append(wantRes, res) })

					if stale != staleBefore || tr.Len() != traceBefore {
						t.Errorf("Reset left the old sink or tracer attached")
					}
					for i := range wantRes {
						if gotRes[i] != wantRes[i] {
							t.Fatalf("access %d: reused %+v, fresh %+v", i, gotRes[i], wantRes[i])
						}
					}
					if len(got) != len(want) {
						t.Fatalf("reused emitted %d events, fresh %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("event %d: reused %+v, fresh %+v", i, got[i], want[i])
						}
					}
					if reused.Stats() != fresh.Stats() {
						t.Errorf("stats: reused %+v, fresh %+v", reused.Stats(), fresh.Stats())
					}
					gpc, wpc := reused.PerCoreStats(), fresh.PerCoreStats()
					for c := range wpc {
						if gpc[c] != wpc[c] {
							t.Errorf("core %d stats: reused %+v, fresh %+v", c, gpc[c], wpc[c])
						}
					}
					for l := mem.Line(0); l <= lines; l++ {
						for c := 0; c < cfg.Cores; c++ {
							if g, w := reused.StateOf(c, l), fresh.StateOf(c, l); g != w {
								t.Errorf("core %d line %d: reused %v, fresh %v", c, l, g, w)
							}
						}
						gp, gd := reused.LLCStateOf(l)
						wp, wd := fresh.LLCStateOf(l)
						if gp != wp || gd != wd {
							t.Errorf("LLC line %d: reused %v/%v, fresh %v/%v", l, gp, gd, wp, wd)
						}
					}
					if err := reused.CheckInvariants(); err != nil {
						t.Errorf("reused: %v", err)
					}
					if err := fresh.CheckInvariants(); err != nil {
						t.Errorf("fresh: %v", err)
					}
				})
			}
		}
	}
}

// drive issues n random accesses over the first lines lines, passing each
// Result to observe when it is non-nil.
func drive(h *Hierarchy, r *rand.Rand, lines, n int, observe func(Result)) {
	ctxs := h.Config().Contexts()
	for i := 0; i < n; i++ {
		res := h.Access(Context(r.Intn(ctxs)), addr(uint64(r.Intn(lines)), uint64(r.Intn(8)*8)), r.Intn(2) == 0)
		if observe != nil {
			observe(res)
		}
	}
}

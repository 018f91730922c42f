// Differential test: the flat-page / interned / pooled detector must report
// exactly what the seed detector reported.
//
// refDetector below is a self-contained transcription of the detector as it
// stood before the shadow-layout rewrite: map-of-pointers shadow table,
// string regions, a heap vector clock from first inflation. It is the
// executable spec of the old behavior. Every workload kernel is run once
// through the real simulator with a trace recorder attached; the trace is
// then replayed through both the production detector and the reference, and
// the two report streams must match string-for-string, in order. Stats are
// compared only where the seed had counters (the rewrite added more).
package detector_test

import (
	"testing"

	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/runner"
	"demandrace/internal/syncmodel"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
	"demandrace/internal/workloads"
)

// refState is the seed's per-word shadow state: one heap object per word,
// string regions, read history inflating straight to a vector clock.
type refState struct {
	W, R     vclock.Epoch
	RVC, WVC *vclock.VC
	WRegion  string
	RRegion  string
}

func (s *refState) inflateRead() {
	if s.RVC == nil {
		s.RVC = vclock.New(0)
	}
	if s.R != vclock.None && s.R != vclock.ReadShared {
		s.RVC.Set(s.R.TIDOf(), s.R.TimeOf())
	}
	s.R = vclock.ReadShared
}

// refDetector replicates the seed detector's algorithm over the seed's data
// layout. Reports reuse detector.Report so both sides render identically.
type refDetector struct {
	opt     detector.Options
	threads []*vclock.VC
	regions []string
	sync    *syncmodel.Table
	words   map[mem.Addr]*refState
	reports []detector.Report
	perAddr map[mem.Addr]int
	races   uint64
}

func newRef(threads, mutexes, sems int, opt detector.Options) *refDetector {
	d := &refDetector{
		opt:     opt,
		threads: make([]*vclock.VC, threads),
		regions: make([]string, threads),
		sync:    syncmodel.NewTable(mutexes, sems),
		words:   make(map[mem.Addr]*refState),
		perAddr: make(map[mem.Addr]int),
	}
	for i := range d.threads {
		c := vclock.New(threads)
		c.Set(vclock.TID(i), 1)
		d.threads[i] = c
	}
	return d
}

func (d *refDetector) state(addr mem.Addr) *refState {
	w := mem.WordOf(addr)
	s, ok := d.words[w]
	if !ok {
		s = &refState{}
		d.words[w] = s
	}
	return s
}

func (d *refDetector) epoch(t vclock.TID) vclock.Epoch {
	return vclock.MakeEpoch(t, d.threads[t].Get(t))
}

func (d *refDetector) report(r detector.Report) {
	d.races++
	limit := d.opt.MaxReportsPerAddr
	if limit == 0 {
		limit = 1
	}
	if limit > 0 && d.perAddr[r.Addr] >= limit {
		return
	}
	d.perAddr[r.Addr]++
	d.reports = append(d.reports, r)
}

func refFirstConcurrent(rvc, ct *vclock.VC) (vclock.TID, vclock.Time) {
	for i := 0; i < rvc.Len(); i++ {
		t := vclock.TID(i)
		if rvc.Get(t) > ct.Get(t) {
			return t, rvc.Get(t)
		}
	}
	return -1, 0
}

func (d *refDetector) onRead(t vclock.TID, addr mem.Addr) {
	addr = mem.WordOf(addr)
	s := d.state(addr)
	ct := d.threads[t]
	if d.opt.FullVC {
		d.fullVCRead(t, addr, s, ct)
		return
	}
	e := d.epoch(t)
	if s.R == e {
		return
	}
	if !s.W.LEQ(ct) {
		d.report(detector.Report{Addr: addr, Kind: detector.WriteRead, Cur: t,
			Prev: s.W.TIDOf(), PrevTime: s.W.TimeOf(),
			CurRegion: d.regions[t], PrevRegion: s.WRegion})
	}
	if s.R == vclock.ReadShared {
		s.RVC.Set(t, e.TimeOf())
		s.RRegion = d.regions[t]
		return
	}
	if s.R == vclock.None || s.R.LEQ(ct) {
		s.R = e
		s.RRegion = d.regions[t]
		return
	}
	s.inflateRead()
	s.RVC.Set(t, e.TimeOf())
	s.RRegion = d.regions[t]
}

func (d *refDetector) onWrite(t vclock.TID, addr mem.Addr) {
	addr = mem.WordOf(addr)
	s := d.state(addr)
	ct := d.threads[t]
	if d.opt.FullVC {
		d.fullVCWrite(t, addr, s, ct)
		return
	}
	e := d.epoch(t)
	if s.W == e {
		return
	}
	if !s.W.LEQ(ct) {
		d.report(detector.Report{Addr: addr, Kind: detector.WriteWrite, Cur: t,
			Prev: s.W.TIDOf(), PrevTime: s.W.TimeOf(),
			CurRegion: d.regions[t], PrevRegion: s.WRegion})
	}
	switch {
	case s.R == vclock.ReadShared:
		if !s.RVC.LEQ(ct) {
			prev, ptime := refFirstConcurrent(s.RVC, ct)
			d.report(detector.Report{Addr: addr, Kind: detector.ReadWrite, Cur: t,
				Prev: prev, PrevTime: ptime,
				CurRegion: d.regions[t], PrevRegion: s.RRegion})
		}
		s.R = vclock.None
		s.RVC = nil
		s.RRegion = ""
	case s.R != vclock.None && !s.R.LEQ(ct):
		d.report(detector.Report{Addr: addr, Kind: detector.ReadWrite, Cur: t,
			Prev: s.R.TIDOf(), PrevTime: s.R.TimeOf(),
			CurRegion: d.regions[t], PrevRegion: s.RRegion})
	}
	s.W = e
	s.WRegion = d.regions[t]
}

func (d *refDetector) fullVCRead(t vclock.TID, addr mem.Addr, s *refState, ct *vclock.VC) {
	if s.WVC == nil {
		s.WVC = vclock.New(0)
	}
	if !s.WVC.LEQ(ct) {
		prev, ptime := refFirstConcurrent(s.WVC, ct)
		d.report(detector.Report{Addr: addr, Kind: detector.WriteRead, Cur: t,
			Prev: prev, PrevTime: ptime,
			CurRegion: d.regions[t], PrevRegion: s.WRegion})
	}
	if s.RVC == nil {
		s.RVC = vclock.New(0)
	}
	s.R = vclock.ReadShared
	s.RVC.Set(t, ct.Get(t))
	s.RRegion = d.regions[t]
}

func (d *refDetector) fullVCWrite(t vclock.TID, addr mem.Addr, s *refState, ct *vclock.VC) {
	if s.WVC == nil {
		s.WVC = vclock.New(0)
	}
	if !s.WVC.LEQ(ct) {
		prev, ptime := refFirstConcurrent(s.WVC, ct)
		d.report(detector.Report{Addr: addr, Kind: detector.WriteWrite, Cur: t,
			Prev: prev, PrevTime: ptime,
			CurRegion: d.regions[t], PrevRegion: s.WRegion})
	}
	if s.RVC != nil && !s.RVC.LEQ(ct) {
		prev, ptime := refFirstConcurrent(s.RVC, ct)
		d.report(detector.Report{Addr: addr, Kind: detector.ReadWrite, Cur: t,
			Prev: prev, PrevTime: ptime,
			CurRegion: d.regions[t], PrevRegion: s.RRegion})
	}
	s.WVC.Set(t, ct.Get(t))
	s.WRegion = d.regions[t]
}

// replayRef drives the reference through a trace exactly the way
// trace.Replay drives the production detector.
func replayRef(tr *trace.Trace, opt detector.Options) *refDetector {
	threads, mutexes, sems := tr.Dims()
	d := newRef(threads, mutexes, sems, opt)
	for _, e := range tr.Events {
		if e.Kind == program.OpMark {
			d.regions[e.TID] = e.Str
			continue
		}
		if !e.Analyzed {
			continue
		}
		switch e.Kind {
		case program.OpLoad:
			d.onRead(e.TID, e.Addr)
		case program.OpStore:
			d.onWrite(e.TID, e.Addr)
		case program.OpAtomicLoad:
			d.threads[e.TID].Join(d.sync.Atomic(e.Addr))
		case program.OpAtomicStore:
			d.sync.Atomic(e.Addr).Join(d.threads[e.TID])
			d.threads[e.TID].Tick(e.TID)
		case program.OpLock:
			d.threads[e.TID].Join(d.sync.Mutex(e.Sync))
		case program.OpUnlock:
			d.sync.Mutex(e.Sync).Assign(d.threads[e.TID])
			d.threads[e.TID].Tick(e.TID)
		case program.OpSignal:
			d.sync.Sem(e.Sync).Join(d.threads[e.TID])
			d.threads[e.TID].Tick(e.TID)
		case program.OpWait:
			d.threads[e.TID].Join(d.sync.Sem(e.Sync))
		case program.OpBarrier:
			joined := vclock.New(len(d.threads))
			for _, p := range e.Parties {
				joined.Join(d.threads[p])
			}
			for _, p := range e.Parties {
				d.threads[p].Assign(joined)
				d.threads[p].Tick(p)
			}
		}
	}
	return d
}

// recordKernel executes one kernel under the given policy with a trace
// recorder attached and returns the recorded op stream.
func recordKernel(t *testing.T, k workloads.Kernel, pol demand.PolicyKind) *trace.Trace {
	t.Helper()
	p := k.Build(workloads.Config{Threads: 4, Scale: 1})
	cfg := runner.DefaultConfig().WithPolicy(pol)
	rec := trace.NewRecorder(p.Name)
	cfg.Tracer = rec
	if _, err := runner.Run(p, cfg); err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	return rec.Trace()
}

func diffReports(t *testing.T, label string, got []detector.Report, want []detector.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d reports, reference produced %d", label, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i].String() != want[i].String() {
			t.Errorf("%s: report %d diverged:\n  new: %s\n  ref: %s",
				label, i, got[i].String(), want[i].String())
		}
	}
}

// lateDimsTrace names threads, mutexes and semaphores for the first time
// mid-trace (by an access, a mark, a lock, a semaphore wait and barrier
// parties), so trace.Replay grows its detector while the reference is
// sized up front.
func lateDimsTrace() *trace.Trace {
	op := func(k program.Kind, a mem.Addr, id program.SyncID) program.Op {
		return program.Op{Kind: k, Addr: a, Sync: id}
	}
	rec := trace.NewRecorder("late-dims")
	rec.RecordOp(0, 0, op(program.OpStore, 64, 0), true, true)
	rec.RecordOp(1, 1, op(program.OpLoad, 64, 0), true, true)
	rec.RecordMark(2, 0, "late region")
	rec.RecordOp(2, 0, op(program.OpStore, 128, 0), false, true)
	rec.RecordOp(0, 0, op(program.OpLock, 0, 2), false, true)
	rec.RecordOp(0, 0, op(program.OpStore, 192, 0), false, true)
	rec.RecordOp(0, 0, op(program.OpUnlock, 0, 2), false, true)
	rec.RecordOp(3, 1, op(program.OpLock, 0, 2), false, true)
	rec.RecordOp(3, 1, op(program.OpLoad, 192, 0), false, true)
	rec.RecordOp(3, 1, op(program.OpUnlock, 0, 2), false, true)
	rec.RecordOp(1, 1, op(program.OpSignal, 0, 1), false, true)
	rec.RecordOp(4, 0, op(program.OpWait, 0, 1), false, true)
	rec.RecordOp(4, 0, op(program.OpLoad, 64, 0), false, true)
	rec.RecordBarrier(0, []vclock.TID{0, 1, 2, 3, 4, 5}, true)
	rec.RecordOp(5, 1, op(program.OpLoad, 128, 0), false, true)
	rec.RecordOp(6, 0, op(program.OpStore, 128, 0), true, true)
	return rec.Trace()
}

// TestDifferentialAgainstSeedDetector replays every workload kernel through
// the production detector and the embedded seed reference, under both the
// continuous policy (every access analyzed — maximal shadow churn) and the
// demand policy (sparse analysis — exercises cold/partial shadow state),
// with both the capped and uncapped report limits and both engines. One
// more input names its threads and sync objects late, so the production
// detector grows mid-replay while the reference is sized up front.
func TestDifferentialAgainstSeedDetector(t *testing.T) {
	type input struct {
		name string
		tr   *trace.Trace
	}
	inputs := []input{{"late-dims", lateDimsTrace()}}
	for _, k := range workloads.All() {
		for _, pol := range []demand.PolicyKind{demand.Continuous, demand.HITMDemand} {
			inputs = append(inputs, input{k.Name + "/" + string(pol), recordKernel(t, k, pol)})
		}
	}
	for _, in := range inputs {
		for _, opt := range []detector.Options{
			{},
			{MaxReportsPerAddr: -1},
			{FullVC: true, MaxReportsPerAddr: -1},
		} {
			label := in.name
			if opt.FullVC {
				label += "/fullvc"
			}
			if opt.MaxReportsPerAddr == -1 {
				label += "/uncapped"
			}
			det := trace.Replay(in.tr, opt)
			ref := replayRef(in.tr, opt)
			diffReports(t, label, det.Reports(), ref.reports)
			if st := det.Stats(); st.Races != ref.races {
				t.Errorf("%s: Races = %d, reference counted %d", label, st.Races, ref.races)
			}
		}
	}
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync/atomic"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/ingest"
	"demandrace/internal/obs"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/runner"
	"demandrace/internal/service"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// uploadKernels are recorded at set-up, under continuous analysis, as the
// traces trace-upload sends.
var uploadKernels = []string{"canneal", "histogram", "dedup"}

const (
	uploadScale = 32
	chunkBytes  = 64 << 10
	// uploadsPerServer is how many uploads one server instance takes
	// before the workload replaces it with a fresh one. The server keeps
	// every finished upload's decoded trace (about 20 MB per upload of
	// this set), so a single instance would grow without bound.
	uploadsPerServer = 4
	// maxRedrives bounds how many traced uploads keep their bytes for the
	// layer re-drive, and so the traced pass's memory.
	maxRedrives = 32
)

// recordedTrace is one trace of the upload set with its reference result.
type recordedTrace struct {
	tr  *trace.Trace
	ref service.ReplayResult
	sum [32]byte // digest of its encoding
}

// traceUpload is one client uploading traces to one server, alternating
// batch and streamed uploads.
type traceUpload struct {
	o      options
	traces []recordedTrace
	node   *node
	client *service.Client
	pool   *http.Transport
	next   int
	bytes  float64 // trace bytes sealed

	// traced pass only
	traced bool
	done   []uploadOp
	// Chunk acknowledgements seen by the server-side timing wrapper,
	// which runs on the server's goroutines.
	acks, dupAcks atomic.Int64
}

type uploadOp struct {
	id    string
	jobID string
	raw   []byte
	batch bool
	job   []obs.SpanRecord
}

func setupTraceUpload(o options) (instance, error) {
	u := &traceUpload{o: o}
	for _, name := range uploadKernels {
		rt, err := recordTrace(name, o.seed)
		if err != nil {
			u.close()
			return nil, err
		}
		u.traces = append(u.traces, rt)
	}
	if err := u.restart(); err != nil {
		u.close()
		return nil, err
	}
	return u, nil
}

// restart replaces the server, and the client's connections, with fresh
// ones.
func (u *traceUpload) restart() error {
	u.stop()
	n, err := startNode("backend-0", "", u.o.tr, u.onBody)
	if err != nil {
		return err
	}
	u.node = n
	u.client, u.pool = newClient(n.hs.URL, u.o.tr)
	return nil
}

func (u *traceUpload) stop() {
	if u.pool != nil {
		u.pool.CloseIdleConnections()
	}
	if u.node != nil {
		u.node.stop()
	}
	u.node, u.pool = nil, nil
}

// recordTrace records kernel's continuous-analysis run and computes the
// reference result an upload of it must produce.
func recordTrace(name string, seed int64) (recordedTrace, error) {
	k, ok := workloads.ByName(name)
	if !ok {
		return recordedTrace{}, fmt.Errorf("unknown kernel %q", name)
	}
	p := k.Build(workloads.Config{Threads: 4, Scale: uploadScale})
	rec := trace.NewRecorder(p.Name)
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	cfg.PMU.Seed, cfg.Sched.Seed, cfg.Demand.Seed = seed, seed, seed
	cfg.Tracer = rec
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if _, err := runner.RunContext(ctx, p, cfg); err != nil {
		return recordedTrace{}, fmt.Errorf("recording %s: %w", name, err)
	}
	tr := rec.Trace()
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		return recordedTrace{}, err
	}
	s := trace.Summarize(tr)
	det := trace.Replay(tr, detector.Options{MaxReportsPerAddr: 1})
	return recordedTrace{
		tr: tr,
		ref: service.ReplayResult{
			Events: s.Events, Threads: s.Threads, HITM: s.HITM, Analyzed: s.Analyzed,
			Races: det.Reports(), Stats: det.Stats(),
		},
		sum: sha256.Sum256(buf.Bytes()),
	}, nil
}

// upload is the i-th upload: which trace, under which program name, and
// whether it is sent in one request or streamed. Uploads alternate batch
// and stream, and each mode takes the traces in seeded rounds that hold
// every trace once, so both modes see the same mix.
func (u *traceUpload) upload(i int) (trace int, name string, batch bool) {
	batch = i%2 == 0
	t := pick(u.o.seed, len(u.traces), i/2, 4, uint64(i%2))
	return t, fmt.Sprintf("%s-%d-%d", u.traces[t].tr.Program, u.o.seed, i), batch
}

func (u *traceUpload) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "trace-upload seed=%d scale=%d chunk=%d\n", u.o.seed, uploadScale, chunkBytes)
	for _, t := range u.traces {
		h.Write(t.sum[:])
	}
	for i := 0; i < 1024; i++ {
		t, name, batch := u.upload(i)
		fmt.Fprintf(h, "%d %s %v\n", t, name, batch)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// onBody counts duplicate chunk acknowledgements during the traced pass.
func (u *traceUpload) onBody(rt string, body []byte) {
	if rt != "chunk" {
		return
	}
	var ack ingest.Ack
	if json.Unmarshal(body, &ack) != nil {
		return
	}
	u.acks.Add(1)
	if ack.Duplicate {
		u.dupAcks.Add(1)
	}
}

// op re-encodes the next upload's trace under its own program name, so
// every upload is a cache miss with the same events, sends it, and checks
// the sealed result against the trace's reference.
func (u *traceUpload) op(ctx context.Context, rec *recorder) {
	i := u.next
	u.next++
	if i > 0 && i%uploadsPerServer == 0 {
		if err := u.restart(); err != nil {
			rec.add("batch", "", 0, 0, fmt.Errorf("restarting the server: %w", err))
			return
		}
	}
	t, name, batch := u.upload(i)
	src := u.traces[t]
	renamed := *src.tr
	renamed.Program = name
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, &renamed); err != nil {
		rec.add("batch", "", 0, 0, err)
		return
	}
	raw := buf.Bytes()

	id := fmt.Sprintf("upload-%d", i)
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	ctx = withOp(octx, id)
	if u.traced {
		ctx = tracectx.Into(ctx, tracectx.New())
	}
	class := "stream"
	if batch {
		class = "batch"
	}
	start := time.Now()
	data, st, err := u.send(ctx, raw, batch)
	end := time.Now()
	if err == nil {
		err = checkReplay(data, name, src.ref)
	}
	rec.add(class, src.tr.Program, end.Sub(start), float64(len(src.tr.Events)), err)
	if err != nil {
		return
	}
	u.bytes += float64(len(raw))
	if !u.traced {
		return
	}
	u.o.tr.add(span{id: id, name: "uploads.op", track: "client", op: id, start: start, end: end})
	uo := uploadOp{id: id, jobID: st.ID, batch: batch}
	if len(u.done) < maxRedrives {
		uo.raw = append([]byte(nil), raw...)
	}
	if doc, err := u.client.JobTrace(octx, st.ID); err == nil {
		uo.job, _, _ = obs.DecodeSpanTrace(doc)
	}
	u.done = append(u.done, uo)
}

func (u *traceUpload) send(ctx context.Context, raw []byte, batch bool) ([]byte, service.Status, error) {
	var (
		st  service.Status
		err error
	)
	if batch {
		st, err = u.client.SubmitTrace(ctx, bytes.NewReader(raw), service.TraceOptions{})
	} else {
		st, err = u.client.StreamTrace(ctx, raw, service.TraceOptions{}, service.StreamOptions{ChunkBytes: chunkBytes})
	}
	if err != nil {
		return nil, st, err
	}
	if !st.State.Terminal() {
		if st, err = u.client.Wait(ctx, st.ID); err != nil {
			return nil, st, err
		}
	}
	if st.State != service.StateDone {
		return nil, st, fmt.Errorf("upload job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	data, err := u.client.Result(ctx, st.ID)
	return data, st, err
}

// checkReplay compares a sealed replay result with the reference: events,
// threads, HITM, analyzed, races and detector stats.
func checkReplay(data []byte, name string, ref service.ReplayResult) error {
	var got service.ReplayResult
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("replay result: %w", err)
	}
	if got.Program != name {
		return fmt.Errorf("replay result is for %q, sent %q", got.Program, name)
	}
	got.Program = ""
	if !reflect.DeepEqual(got, ref) {
		return fmt.Errorf("%s: replay result differs from the reference", name)
	}
	return nil
}

// run uploads until the deadline, and at least one batch and one
// streamed upload, so every class has a sample.
func (u *traceUpload) run(ctx context.Context, until time.Time, rec *recorder) {
	for n := 0; n < 2 || time.Now().Before(until); n++ {
		u.op(ctx, rec)
	}
}

func (u *traceUpload) table(rec *recorder, elapsed time.Duration) []metric {
	b, s := rec.samples("batch"), rec.samples("stream")
	return []metric{
		{Name: "upload_mb_per_s", Value: u.bytes / 1e6 / elapsed.Seconds(), Unit: "MB/s"},
		{Name: "upload_ms_p50_batch", Value: quantile(b, 0.5), Unit: "ms", Note: fmt.Sprintf("n=%d", len(b))},
		{Name: "upload_ms_p50_stream", Value: quantile(s, 0.5), Unit: "ms", Note: fmt.Sprintf("n=%d", len(s))},
	}
}

// runTraced drives the uploads through referencedPass, then re-drives
// every traced upload's bytes through the trace and detector layers.
func (u *traceUpload) runTraced(ctx context.Context, until time.Time, rec *recorder, tr *tracer) {
	elapsed := referencedPass(ctx, until, rec, tr, &u.traced, u.run)
	var jops []jobOp
	for _, o := range u.done {
		jops = append(jops, jobOp{id: o.id, miss: true, jobID: o.jobID, jobSpan: o.job})
	}
	setServiceLayers(tr, jops, elapsed)
	tr.set("ingest.chunk_ms", medianDur(spansNamed(tr, "ingest.chunk")))
	tr.set("ingest.commit_ms", medianDur(spansNamed(tr, "ingest.commit")))
	tr.set("ingest.dup_ack_share", ratio(float64(u.dupAcks.Load()), float64(u.acks.Load())))

	tr.on.Store(true)
	var l traceLedger
	for _, o := range u.done {
		if o.raw == nil {
			continue
		}
		if err := l.redrive(tr, o); err != nil {
			rec.add("redrive", "", 0, 0, err)
		}
	}
	tr.on.Store(false)
	l.publish(tr)
}

func (u *traceUpload) close() { u.stop() }

// traceLedger accumulates the re-driven trace and detector layer timings.
type traceLedger struct {
	bytes, encNs, decNs, streamNs float64
	liveNs, liveEvents, rebuilds  float64
	replayNs, events              float64
	detAccesses, fast, vc, spill  float64
	uploads                       float64
}

// redrive times the library calls an upload exercises, on its own bytes:
// batch decode, streamed decode at the upload chunk size, live replay of
// the streamed events, encode, and batch replay.
func (l *traceLedger) redrive(tr *tracer, o uploadOp) error {
	var (
		dec *trace.Trace
		err error
	)
	ds := tr.timed("trace.decode", o.id, o.id, func() {
		dec, err = trace.DecodeBinaryLimited(bytes.NewReader(o.raw), trace.DecodeLimits{MaxEvents: 1 << 22, MaxBytes: 64 << 20})
	})
	if err != nil {
		return err
	}
	sd := trace.NewStreamDecoder(trace.DecodeLimits{MaxEvents: 1 << 22, MaxBytes: 64 << 20})
	var streamed []trace.Event
	ss := tr.timed("trace.stream_decode", o.id, o.id, func() {
		for off := 0; off < len(o.raw) && err == nil; off += chunkBytes {
			var evs []trace.Event
			evs, err = sd.Feed(o.raw[off:min(off+chunkBytes, len(o.raw))])
			streamed = append(streamed, evs...)
		}
		if err == nil {
			err = sd.Finish()
		}
	})
	if err != nil {
		return err
	}
	if len(streamed) != len(dec.Events) {
		return fmt.Errorf("%s: stream decoder gave %d events, batch %d", o.id, len(streamed), len(dec.Events))
	}
	live := trace.NewLiveReplay(detector.Options{MaxReportsPerAddr: 1})
	ls := tr.timed("trace.live_replay", o.id, o.id, func() {
		for _, e := range streamed {
			live.Apply(e)
		}
	})
	var buf bytes.Buffer
	buf.Grow(len(o.raw))
	es := tr.timed("trace.encode", o.id, o.id, func() { err = trace.EncodeBinary(&buf, dec) })
	if err != nil {
		return err
	}
	var det *detector.Detector
	rs := tr.timed("detector.replay", o.id, o.id, func() { det = trace.Replay(dec, detector.Options{MaxReportsPerAddr: 1}) })
	if !reflect.DeepEqual(det.Reports(), live.Races()) {
		return fmt.Errorf("%s: live replay and batch replay disagree", o.id)
	}
	l.uploads++
	l.bytes += float64(len(o.raw))
	l.decNs += float64(ds.dur())
	l.streamNs += float64(ss.dur())
	l.liveNs += float64(ls.dur())
	l.liveEvents += float64(len(streamed))
	l.rebuilds += float64(live.Rebuilds())
	l.encNs += float64(es.dur())
	l.replayNs += float64(rs.dur())
	l.events += float64(len(dec.Events))
	st := det.Stats()
	l.detAccesses += float64(st.Reads + st.Writes)
	l.fast += float64(st.SameEpochHits + st.OwnedHits)
	l.vc += float64(st.VCFallbacks)
	l.spill += float64(st.ReadSpills)
	return nil
}

func (l *traceLedger) publish(tr *tracer) {
	mbps := func(ns float64) float64 { return ratio(l.bytes/1e6, ns/1e9) }
	tr.set("trace.encode_mb_per_s", mbps(l.encNs))
	tr.set("trace.decode_mb_per_s", mbps(l.decNs))
	tr.set("trace.stream_decode_mb_per_s", mbps(l.streamNs))
	tr.set("trace.live_replay_ns_per_event", ratio(l.liveNs, l.liveEvents))
	tr.set("trace.live_rebuilds", ratio(l.rebuilds, l.uploads))
	tr.set("detector.replay_ns_per_event", ratio(l.replayNs, l.events))
	tr.set("detector.fastpath_share", ratio(l.fast, l.detAccesses))
	tr.set("detector.vc_fallback_share", ratio(l.vc, l.detAccesses))
	tr.set("detector.read_spills", ratio(l.spill, l.uploads))
}

package cluster

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/runner"
	"demandrace/internal/service"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// recordRacyTrace encodes a continuous-analysis racy_counter run.
func recordRacyTrace(t *testing.T) []byte {
	t.Helper()
	k, _ := workloads.ByName("racy_counter")
	p := k.Build(workloads.Config{Threads: 4, Scale: 1})
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	rec := trace.NewRecorder(p.Name)
	cfg.Tracer = rec
	if _, err := runner.Run(p, cfg); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterStreamedUpload drives the full streaming protocol through
// ddgate against a multi-node ring: open pins a backend via the session-ID
// namespace, chunks and partial polls follow the prefix, an injected
// mid-stream fault exercises resume-through-the-gateway, and the sealed
// result is byte-identical to a batch submission of the same bytes.
func TestClusterStreamedUpload(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	raw := recordRacyTrace(t)
	opts := service.TraceOptions{MaxReports: -1}

	backends := make([]Backend, 3)
	for i := range backends {
		_, hs := startBackend(t)
		backends[i] = Backend{Name: string(rune('a' + i)), URL: hs.URL}
	}
	g, cl := newGateway(t, Config{Backends: backends})

	// Batch reference through the same gateway.
	st, err := cl.SubmitTrace(ctx, bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatalf("batch SubmitTrace: %v", err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("batch job %+v (%v)", st, err)
	}
	want, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Streamed upload with a fault injected after the second chunk. The
	// chunk size forces ≥3 chunks so the fault lands mid-stream.
	chunkBytes := len(raw)/4 + 1
	var partials []service.PartialReport
	sst, err := cl.StreamTrace(ctx, raw, opts, service.StreamOptions{
		ChunkBytes: chunkBytes,
		FaultAfter: 2,
		OnPartial:  func(p service.PartialReport) { partials = append(partials, p) },
	})
	if err != nil {
		t.Fatalf("StreamTrace through gateway: %v", err)
	}
	if sst.State != service.StateDone || sst.Kind != "trace" {
		t.Fatalf("streamed status %+v", sst)
	}
	// Both IDs are gateway-namespaced, and they may land on different
	// backends (batch routes by content hash, sessions rotate).
	if _, _, ok := splitJobID(sst.ID); !ok {
		t.Fatalf("streamed job ID %q not namespaced", sst.ID)
	}
	got, err := cl.Result(ctx, sst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed result through gateway differs from batch:\n got %s\nwant %s", got, want)
	}

	// Partials were observable pre-commit, namespaced to the owning node.
	if len(partials) == 0 {
		t.Fatal("no partial reports surfaced mid-stream")
	}
	p := partials[0]
	name, _, ok := splitJobID(p.Session)
	if !ok || g.byName[name] == nil {
		t.Fatalf("partial session %q not namespaced to a backend", p.Session)
	}
	if p.State != "receiving" || len(p.Races) == 0 {
		t.Fatalf("mid-stream partial %+v", p)
	}

	// After commit, the partial stays fetchable by the namespaced job ID.
	p2, err := cl.Partial(ctx, sst.ID)
	if err != nil {
		t.Fatalf("post-commit partial through gateway: %v", err)
	}
	if p2.State != "committed" || p2.Job != sst.ID {
		t.Fatalf("post-commit partial %+v, want job %s", p2, sst.ID)
	}
}

// TestClusterSessionChunksPinned: every chunk of a session goes to the
// backend named in the session ID — the other nodes never see it.
func TestClusterSessionChunksPinned(t *testing.T) {
	ctx := context.Background()
	raw := recordRacyTrace(t)

	srvs := make([]*service.Server, 3)
	backends := make([]Backend, 3)
	for i := range backends {
		s, hs := startBackend(t)
		srvs[i] = s
		backends[i] = Backend{Name: string(rune('a' + i)), URL: hs.URL}
	}
	_, cl := newGateway(t, Config{Backends: backends})

	ts, err := cl.OpenTrace(ctx, service.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	owner, remoteID, ok := splitJobID(ts.Session)
	if !ok || !strings.HasPrefix(remoteID, "s-") {
		t.Fatalf("session ID %q not in backend:s-n form", ts.Session)
	}
	chunk := raw[:64]
	if _, err := cl.PutChunk(ctx, ts.Session, 0, chunk); err != nil {
		t.Fatal(err)
	}
	for i, s := range srvs {
		n := s.Ingest().Len()
		if backends[i].Name == owner && n != 1 {
			t.Fatalf("owner %s holds %d sessions, want 1", owner, n)
		}
		if backends[i].Name != owner && n != 0 {
			t.Fatalf("non-owner %s holds %d sessions", backends[i].Name, n)
		}
	}

	// An unknown backend prefix 404s at the gateway without a forward.
	if _, err := cl.PutChunk(ctx, "nope:s-1", 1, chunk); err == nil {
		t.Fatal("chunk to unknown backend prefix accepted")
	} else if apiErr, ok := err.(*service.APIError); !ok || apiErr.Code != 404 {
		t.Fatalf("unknown-prefix error %v", err)
	}
}

// TestClusterSessionEventsNamespaced: trace_chunk/race_found events tailed
// from a backend re-publish on the gateway bus with namespaced session IDs.
func TestClusterSessionEventsNamespaced(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	raw := recordRacyTrace(t)

	_, hs := startBackend(t)
	g, cl := newGateway(t, Config{Backends: []Backend{{Name: "solo", URL: hs.URL}}})
	g.Start()
	sub := g.Events().Subscribe(256)
	defer sub.Close()
	// Let the tailer attach before generating events.
	time.Sleep(50 * time.Millisecond)

	if _, err := cl.StreamTrace(ctx, raw, service.TraceOptions{MaxReports: -1},
		service.StreamOptions{ChunkBytes: len(raw)/3 + 1}); err != nil {
		t.Fatalf("StreamTrace: %v", err)
	}

	sawChunk, sawRace := false, false
	for !(sawChunk && sawRace) {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatal("gateway bus closed")
		}
		switch ev.Type {
		case "trace_chunk":
			sawChunk = true
		case "race_found":
			sawRace = true
		default:
			continue
		}
		if !strings.HasPrefix(ev.Job, "solo:s-") {
			t.Fatalf("%s event job %q not namespaced", ev.Type, ev.Job)
		}
	}
}

// outOfRangeTraces are DRT1 uploads naming thread IDs past
// vclock.MaxThreads: 0xffffffff (-1 as an int32) in 18 bytes, 65536
// (which the 16-bit epoch aliases to TID 0) and 203561 (whose per-thread
// clocks would take ~159 GiB).
var outOfRangeTraces = map[string]string{
	"tid -1":     "DRT1\x01p\x01\x02\x00\xff\xff\xff\xff\x0f\x00\x08\x00\x00",
	"tid 65536":  "DRT1\x01p\x02\x02\x01\x00\x00\x08\x00\x00\x02\x01\x80\x80\x04\x00\x08\x00\x00",
	"tid 203561": "DRT1\x01p\x01\x02\x00\xa9\xb6\x0c\x00\x08\x00\x00",
}

// TestClusterOutOfRangeThreadIDsGet413: through ddgate, a trace naming a
// thread ID past the decode bound is the backend's 413, batch and
// streamed.
func TestClusterOutOfRangeThreadIDsGet413(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, hs := startBackend(t)
	_, cl := newGateway(t, Config{Backends: []Backend{{Name: "a", URL: hs.URL}}})
	for name, raw := range outOfRangeTraces {
		_, err := cl.SubmitTrace(ctx, strings.NewReader(raw), service.TraceOptions{})
		if apiErr, ok := err.(*service.APIError); !ok || apiErr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: batch upload through the gateway: %v, want a 413", name, err)
		}
		_, err = cl.StreamTrace(ctx, []byte(raw), service.TraceOptions{}, service.StreamOptions{ChunkBytes: 4})
		if apiErr, ok := err.(*service.APIError); !ok || apiErr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: streamed upload through the gateway: %v, want a 413", name, err)
		}
	}
}

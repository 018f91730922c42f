package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/runner"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// recordKernelTrace runs kernel under continuous analysis with a recorder
// attached and returns the encoded binary trace.
func recordKernelTrace(t *testing.T, kernel string) []byte {
	t.Helper()
	k, ok := workloads.ByName(kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", kernel)
	}
	p := k.Build(workloads.Config{Threads: 4, Scale: 1})
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	rec := trace.NewRecorder(p.Name)
	cfg.Tracer = rec
	if _, err := runner.Run(p, cfg); err != nil {
		t.Fatalf("recording %s: %v", kernel, err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchResult submits raw through the one-shot path and returns the sealed
// result bytes.
func batchResult(t *testing.T, cl *Client, raw []byte, opts TraceOptions) []byte {
	t.Helper()
	ctx := context.Background()
	st, err := cl.SubmitTrace(ctx, bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatalf("SubmitTrace: %v", err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("batch job ended %+v (%v)", st, err)
	}
	data, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamedResultByteIdenticalToBatch is the differential acceptance
// suite: for every bundled workload kernel, the streamed upload's sealed
// result must be byte-for-byte the batch upload's result on the same
// bytes. Caching is disabled so both paths genuinely execute.
func TestStreamedResultByteIdenticalToBatch(t *testing.T) {
	opts := TraceOptions{MaxReports: -1}
	for _, kernel := range workloads.Names() {
		kernel := kernel
		t.Run(kernel, func(t *testing.T) {
			raw := recordKernelTrace(t, kernel)
			_, _, cl := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
			want := batchResult(t, cl, raw, opts)

			st, err := cl.StreamTrace(context.Background(), raw, opts, StreamOptions{
				ChunkBytes: 1 << 12,
			})
			if err != nil {
				t.Fatalf("StreamTrace: %v", err)
			}
			if st.State != StateDone {
				t.Fatalf("streamed job state %q", st.State)
			}
			got, err := cl.Result(context.Background(), st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("streamed result differs from batch:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestStreamedOneByteChunks pushes a whole trace one byte at a time —
// every header and event boundary crossed mid-field — and still demands a
// byte-identical result.
func TestStreamedOneByteChunks(t *testing.T) {
	raw := recordKernelTrace(t, "racy_flag")
	opts := TraceOptions{FullVC: true, MaxReports: -1}
	// Lift the chunk-apply backpressure bound: thousands of one-byte
	// chunks arrive serially, but each one is an "inflight apply".
	_, _, cl := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	want := batchResult(t, cl, raw, opts)

	st, err := cl.StreamTrace(context.Background(), raw, opts, StreamOptions{ChunkBytes: 1})
	if err != nil {
		t.Fatalf("StreamTrace: %v", err)
	}
	got, err := cl.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("1-byte-chunk streamed result differs from batch")
	}
}

// TestTrailingByteRejectedBatchAndStreamed: one byte past the declared
// events fails a batch upload with 400, and streaming the same bytes fails
// too — both paths run the one DRT1 parser.
func TestTrailingByteRejectedBatchAndStreamed(t *testing.T) {
	raw := append(recordKernelTrace(t, "racy_flag"), 0)
	_, _, cl := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	ctx := context.Background()
	_, err := cl.SubmitTrace(ctx, bytes.NewReader(raw), TraceOptions{})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Code != http.StatusBadRequest {
		t.Fatalf("batch upload with a trailing byte: %v, want a 400", err)
	}
	if _, err := cl.StreamTrace(ctx, raw, TraceOptions{}, StreamOptions{ChunkBytes: 1 << 12}); err == nil {
		t.Fatal("streamed upload with a trailing byte accepted")
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

// TestOutOfRangeThreadIDsGet413: a trace naming a thread ID past the
// decode bound is a 413, batch and streamed (whole and a byte at a time),
// and never reaches the detector.
func TestOutOfRangeThreadIDsGet413(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	ctx := context.Background()
	for name, raw := range outOfRangeTraces {
		_, err := cl.SubmitTrace(ctx, strings.NewReader(raw), TraceOptions{})
		if apiErr, ok := err.(*APIError); !ok || apiErr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: batch upload: %v, want a 413", name, err)
		}
		for _, chunk := range []int{1, len(raw)} {
			_, err := cl.StreamTrace(ctx, []byte(raw), TraceOptions{}, StreamOptions{ChunkBytes: chunk})
			if apiErr, ok := err.(*APIError); !ok || apiErr.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: streamed upload in %d-byte chunks: %v, want a 413", name, chunk, err)
			}
		}
	}
}

// TestStreamedSharesCacheWithBatch: the streamed commit lands on the same
// content address as a batch upload of the same bytes, so the reverse
// submission order is a cache hit.
func TestStreamedSharesCacheWithBatch(t *testing.T) {
	raw := recordKernelTrace(t, "racy_counter")
	opts := TraceOptions{MaxReports: -1}
	s, _, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	if _, err := cl.StreamTrace(ctx, raw, opts, StreamOptions{ChunkBytes: 512}); err != nil {
		t.Fatalf("StreamTrace: %v", err)
	}
	st, err := cl.SubmitTrace(ctx, bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Fatalf("batch resubmission of streamed bytes missed the cache: %+v", st)
	}
	if key := TraceCacheKey(raw, opts); s.jobs[st.ID].key != key {
		t.Fatalf("cache key mismatch: job %s, want %s", s.jobs[st.ID].key, key)
	}
}

// TestPartialAndSSEBeforeCommit holds the last chunk back and asserts the
// race is observable — via GET partial and a race_found SSE event — while
// the session is still receiving.
func TestPartialAndSSEBeforeCommit(t *testing.T) {
	raw := recordKernelTrace(t, "racy_counter")
	_, hs, cl := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Tail the SSE stream before streaming anything.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	ts, err := cl.OpenTrace(ctx, TraceOptions{MaxReports: -1})
	if err != nil {
		t.Fatal(err)
	}
	split := len(raw) / 2
	chunks := [][]byte{raw[:split], raw[split:]}
	if _, err := cl.PutChunk(ctx, ts.Session, 0, chunks[0]); err != nil {
		t.Fatal(err)
	}
	ack, err := cl.PutChunk(ctx, ts.Session, 1, chunks[1])
	if err != nil {
		t.Fatal(err)
	}
	if ack.Races == 0 {
		t.Fatal("no races surfaced mid-stream (racy_counter must race)")
	}

	// Pre-commit partial shows them.
	p, err := cl.Partial(ctx, ts.Session)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != "receiving" || len(p.Races) == 0 {
		t.Fatalf("pre-commit partial %+v", p)
	}

	// The SSE tail carries trace_chunk and race_found before any commit.
	sawChunk, sawRace := false, false
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() && !(sawChunk && sawRace) {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Type string `json:"type"`
			Job  string `json:"job"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		switch ev.Type {
		case "trace_chunk":
			sawChunk = true
		case "race_found":
			sawRace = true
			if ev.Job != ts.Session {
				t.Fatalf("race_found job %q, want session %q", ev.Job, ts.Session)
			}
		}
	}
	if !sawChunk || !sawRace {
		t.Fatalf("SSE before commit: trace_chunk=%v race_found=%v", sawChunk, sawRace)
	}

	// Commit; partial stays reachable under the job ID.
	st, err := cl.CommitTrace(ctx, ts.Session)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Kind != "trace" {
		t.Fatalf("commit status %+v", st)
	}
	p2, err := cl.Partial(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2.State != "committed" || len(p2.Races) != len(p.Races) {
		t.Fatalf("post-commit partial %+v", p2)
	}
}

// TestStreamResumeAfterInjectedFault drops the connection mid-upload and
// proves the resume protocol (status → high-water → duplicate re-send)
// still seals a byte-identical result.
func TestStreamResumeAfterInjectedFault(t *testing.T) {
	raw := recordKernelTrace(t, "racy_flag")
	opts := TraceOptions{MaxReports: -1}
	_, _, cl := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	want := batchResult(t, cl, raw, opts)

	var partials int
	st, err := cl.StreamTrace(context.Background(), raw, opts, StreamOptions{
		ChunkBytes: 1 << 10,
		FaultAfter: 2,
		OnPartial:  func(PartialReport) { partials++ },
	})
	if err != nil {
		t.Fatalf("StreamTrace with fault: %v", err)
	}
	got, err := cl.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-fault streamed result differs from batch")
	}
	if partials == 0 {
		t.Fatal("OnPartial never fired for a racy trace")
	}
}

// TestChunkErrorsCarryRetryAfter: quota rejections surface the server's
// pacing hint in the client error string (the Options-driven retry loop
// uses the same header as its backoff floor).
func TestChunkErrorsCarryRetryAfter(t *testing.T) {
	_, _, cl := newTestServer(t, Config{IngestSessions: 1})
	ctx := context.Background()
	if _, err := cl.OpenTrace(ctx, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err := cl.OpenTrace(ctx, TraceOptions{})
	if err == nil {
		t.Fatal("second open admitted past the quota")
	}
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if apiErr.Code != http.StatusTooManyRequests || apiErr.RetryAfter == 0 {
		t.Fatalf("quota error %+v", apiErr)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("(retry after %ds)", apiErr.RetryAfter)) {
		t.Fatalf("error string lacks pacing hint: %q", err.Error())
	}

	// Oversized chunks answer 413 with the typed limit message.
	cl2Srv := NewServer(Config{IngestChunkBytes: 16})
	cl2Srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cl2Srv.Shutdown(ctx)
	})
	hs2 := httptest.NewServer(cl2Srv.Handler())
	t.Cleanup(hs2.Close)
	cl2 := &Client{BaseURL: hs2.URL}
	ts2, err := cl2.OpenTrace(ctx, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ts2.MaxChunkBytes != 16 {
		t.Fatalf("advertised max chunk bytes %d", ts2.MaxChunkBytes)
	}
	_, err = cl2.PutChunk(ctx, ts2.Session, 0, make([]byte, 64))
	apiErr, ok = err.(*APIError)
	if !ok || apiErr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunk: %v", err)
	}
}

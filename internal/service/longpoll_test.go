package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/runner"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// admitBlocked admits a job whose body runs until release is closed (or
// its context ends), so a test decides when the job finishes.
func admitBlocked(t *testing.T, s *Server) (id string, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	st, err := s.admit(context.Background(), &Job{
		kind:    "kernel",
		name:    "blocked",
		key:     "blocked:" + t.Name(),
		timeout: time.Minute,
		done:    make(chan struct{}),
		run: func(ctx context.Context) ([]byte, error) {
			select {
			case <-release:
				return []byte("{}"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	return st.ID, release
}

type pollResult struct {
	code int
	st   Status
	at   time.Time
	err  error
}

// longPoll issues one GET /v1/jobs/{id}?wait= in the background.
func longPoll(base, id, wait string) <-chan pollResult {
	out := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=" + wait)
		if err != nil {
			out <- pollResult{err: err, at: time.Now()}
			return
		}
		defer resp.Body.Close()
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		out <- pollResult{code: resp.StatusCode, st: st, at: time.Now(), err: err}
	}()
	return out
}

// pending fails the test if the poll has already answered.
func pending(t *testing.T, polls <-chan pollResult, what string) {
	t.Helper()
	select {
	case p := <-polls:
		t.Fatalf("%s: long-poll answered early: %+v", what, p)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLongPollAnswersAtJobEnd: one ?wait=10s call on a running job is
// held until the job ends and answers its terminal status right then.
func TestLongPollAnswersAtJobEnd(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 1})
	id, release := admitBlocked(t, s)

	polls := longPoll(ts.URL, id, "10s")
	pending(t, polls, "before the job ends")
	ended := time.Now()
	close(release)
	p := <-polls
	if p.err != nil || p.code != http.StatusOK {
		t.Fatalf("long-poll = %d, %v", p.code, p.err)
	}
	if p.st.State != StateDone {
		t.Fatalf("long-poll state = %q, want done", p.st.State)
	}
	// Generous for a loaded race-detector host; a poll loop would answer
	// a whole interval late, and the bound is 10 s.
	if lag := p.at.Sub(ended); lag > 100*time.Millisecond {
		t.Fatalf("long-poll answered %v after the job ended", lag)
	}
}

// TestLongPollBounds: the wait is clamped to maxWait, a malformed or
// negative wait answers 400, an expired bound answers the current
// non-terminal status, and an unknown ID answers 404 without blocking.
func TestLongPollBounds(t *testing.T) {
	for q, want := range map[string]time.Duration{"": 0, "0s": 0, "250ms": 250 * time.Millisecond, "1h": maxWait} {
		if got, err := parseWait(q); err != nil || got != want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", q, got, err, want)
		}
	}

	// Workers are never started, so the job stays queued.
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit(context.Background(), Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for _, q := range []string{"bogus", "-1s", "10"} {
		if p := <-longPoll(ts.URL, st.ID, q); p.code != http.StatusBadRequest {
			t.Errorf("wait=%s: status %d, want 400", q, p.code)
		}
	}
	start := time.Now()
	p := <-longPoll(ts.URL, st.ID, "60ms")
	if p.code != http.StatusOK || p.st.State != StateQueued {
		t.Fatalf("expired long-poll = %d %q, want 200 queued", p.code, p.st.State)
	}
	if waited := p.at.Sub(start); waited < 60*time.Millisecond {
		t.Fatalf("long-poll answered after %v, before its 60ms bound", waited)
	}
	start = time.Now()
	if p := <-longPoll(ts.URL, "j-404", "10s"); p.code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", p.code)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("unknown job blocked for %v", waited)
	}
}

// TestShutdownReleasesLongPoll: a drain whose deadline expires cancels the
// running job, and the outstanding long-poll answers that terminal state
// instead of holding the drain.
func TestShutdownReleasesLongPoll(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, _ := admitBlocked(t, s) // never released

	polls := longPoll(ts.URL, id, "10s")
	pending(t, polls, "before the drain")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the drain deadline", err)
	}
	p := <-polls
	if p.err != nil || p.st.State != StateCanceled {
		t.Fatalf("long-poll during drain = %+v, want canceled", p)
	}
	if took := p.at.Sub(start); took > 2*time.Second {
		t.Fatalf("drain and long-poll took %v", took)
	}
}

// TestClientWaitClampsToTimeout: a client whose per-attempt timeout is
// shorter than maxWait asks for half of it per long-poll, so a job that
// outlasts several attempts still completes instead of failing on its
// first deadline.
func TestClientWaitClampsToTimeout(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 1})
	cl := &Client{BaseURL: ts.URL, Options: Options{Timeout: 200 * time.Millisecond}}
	id, release := admitBlocked(t, s)
	time.AfterFunc(600*time.Millisecond, func() { close(release) })
	st, err := cl.Wait(context.Background(), id)
	if err != nil || st.State != StateDone {
		t.Fatalf("Wait = %+v, %v; want done", st, err)
	}
}

// TestRunSkipsWaitOnCacheHit: a cache hit is born done, so Run fetches its
// result straight after the submission, without a status request.
func TestRunSkipsWaitOnCacheHit(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	s.Start()
	defer s.Shutdown(context.Background())
	var statusReqs atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			statusReqs.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	req := Request{Kernel: "racy_flag", Seed: 3}
	miss, _, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	before := statusReqs.Load()
	hit, st, err := cl.Run(ctx, req)
	if err != nil || !st.CacheHit {
		t.Fatalf("second Run = %+v, %v; want a cache hit", st, err)
	}
	if n := statusReqs.Load() - before; n != 0 {
		t.Fatalf("cache-hit Run made %d status requests, want 0", n)
	}
	if string(hit) != string(miss) {
		t.Fatal("cache-hit result differs from the first result")
	}
}

// TestFinishedJobDropsBody: once a job is terminal its body is gone, so a
// batch upload's decoded trace is not kept alive by the job record — for
// the executed job and for the born-done cache hit alike.
func TestFinishedJobDropsBody(t *testing.T) {
	s, _, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	k, _ := workloads.ByName("racy_flag")
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	rec := trace.NewRecorder("racy_flag")
	cfg.Tracer = rec
	if _, err := runner.Run(k.Build(workloads.Config{Threads: 4, Scale: 1}), cfg); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	var buf strings.Builder
	if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	for i, want := range []bool{false, true} {
		st, err := cl.SubmitTrace(ctx, strings.NewReader(buf.String()), TraceOptions{})
		if err != nil {
			t.Fatalf("SubmitTrace %d: %v", i, err)
		}
		if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != StateDone || st.CacheHit != want {
			t.Fatalf("upload %d = %+v, %v; want done with cache hit %v", i, st, err, want)
		}
		s.mu.Lock()
		held := s.jobs[st.ID].run != nil
		s.mu.Unlock()
		if held {
			t.Fatalf("finished upload %d still holds its job body", i)
		}
	}
}

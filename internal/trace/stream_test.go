package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
)

// encodeTrace renders tr to its binary form.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedAll pushes raw through a StreamDecoder in chunks of the given size
// and returns the reassembled trace.
func feedAll(t *testing.T, raw []byte, chunk int, lim trace.DecodeLimits) *trace.Trace {
	t.Helper()
	dec := trace.NewStreamDecoder(lim)
	var events []trace.Event
	for off := 0; off < len(raw); off += chunk {
		end := off + chunk
		if end > len(raw) {
			end = len(raw)
		}
		evs, err := dec.Feed(raw[off:end])
		if err != nil {
			t.Fatalf("Feed at offset %d: %v", off, err)
		}
		events = append(events, evs...)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	return &trace.Trace{Program: dec.Program(), Events: events}
}

func TestStreamDecoderMatchesBatch(t *testing.T) {
	tr := recordedTrace(t, "racy_counter", demand.Continuous)
	raw := encodeTrace(t, tr)
	want, err := trace.DecodeBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Chunk sizes crossing every boundary class: single bytes (every event
	// split mid-field), primes, and one-shot.
	for _, chunk := range []int{1, 3, 7, 64, 1 << 20} {
		got := feedAll(t, raw, chunk, trace.DecodeLimits{})
		if got.Program != want.Program {
			t.Fatalf("chunk %d: program %q, want %q", chunk, got.Program, want.Program)
		}
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("chunk %d: events differ from batch decode", chunk)
		}
	}
}

func TestStreamDecoderBarrierAndMarks(t *testing.T) {
	// Hand-built trace exercising parties and labels, which have their own
	// variable-length encodings.
	rec := trace.NewRecorder("synthetic")
	rec.RecordMark(0, 0, "init")
	rec.RecordOp(1, 1, program.Op{Kind: program.OpStore, Addr: 64}, true, true)
	rec.RecordBarrier(0, []vclock.TID{0, 1, 2}, true)
	rec.RecordMark(2, 0, "teardown phase with a longer label")
	raw := encodeTrace(t, rec.Trace())
	want, err := trace.DecodeBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := feedAll(t, raw, 1, trace.DecodeLimits{})
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("1-byte stream decode differs from batch:\n got %+v\nwant %+v", got.Events, want.Events)
	}
}

func TestStreamDecoderLimits(t *testing.T) {
	tr := recordedTrace(t, "racy_flag", demand.Continuous)
	raw := encodeTrace(t, tr)

	t.Run("bytes", func(t *testing.T) {
		cap := int64(len(raw) - 1)
		dec := trace.NewStreamDecoder(trace.DecodeLimits{MaxBytes: cap})
		var lastErr error
		for off := 0; off < len(raw) && lastErr == nil; off += 100 {
			end := off + 100
			if end > len(raw) {
				end = len(raw)
			}
			_, lastErr = dec.Feed(raw[off:end])
		}
		var lim *trace.LimitError
		if !errors.As(lastErr, &lim) || lim.What != "bytes" {
			t.Fatalf("want bytes LimitError, got %v", lastErr)
		}
		if lim.Limit != uint64(cap) || lim.Got != uint64(cap) {
			t.Fatalf("limit error fields %+v want Limit=Got=%d (batch parity)", lim, cap)
		}
		// Sticky: a later feed repeats the error.
		if _, err := dec.Feed([]byte{0}); !errors.As(err, &lim) {
			t.Fatalf("error not sticky: %v", err)
		}
	})

	t.Run("events", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{MaxEvents: 1})
		_, err := dec.Feed(raw)
		var lim *trace.LimitError
		if !errors.As(err, &lim) || lim.What != "events" {
			t.Fatalf("want events LimitError, got %v", err)
		}
	})

	t.Run("badmagic", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{})
		if _, err := dec.Feed([]byte("NOPE....")); err == nil {
			t.Fatal("bad magic accepted")
		}
	})

	t.Run("truncated", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{})
		if _, err := dec.Feed(raw[:len(raw)/2]); err != nil {
			t.Fatalf("prefix feed failed: %v", err)
		}
		if err := dec.Finish(); err == nil {
			t.Fatal("Finish accepted a truncated stream")
		}
	})

	t.Run("trailing", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{})
		if _, err := dec.Feed(raw); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Feed([]byte{0xFF}); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
}

// sizedReplay is the reference LiveReplay is checked against: a detector
// sized up front to the trace's final dimensions, as replay was before the
// detector could grow, driven event by event.
func sizedReplay(tr *trace.Trace, opt detector.Options) *detector.Detector {
	threads, mutexes, sems := tr.Dims()
	det := detector.New(threads, mutexes, sems, opt)
	for _, e := range tr.Events {
		trace.ApplyEvent(det, e)
	}
	return det
}

// assertSameDetector compares the reports and the full Stats of a grown
// detector against the sized-up-front reference.
func assertSameDetector(t *testing.T, label string, got, want *detector.Detector) {
	t.Helper()
	if !reflect.DeepEqual(got.Reports(), want.Reports()) {
		t.Fatalf("%s: reports differ:\n grown %+v\n sized %+v", label, got.Reports(), want.Reports())
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats differ: grown %+v, sized %+v", label, got.Stats(), want.Stats())
	}
}

func TestLiveReplayMatchesBatch(t *testing.T) {
	for _, kernel := range []string{"racy_counter", "racy_flag", "histogram", "micro_false_sharing"} {
		for _, opt := range []detector.Options{
			{MaxReportsPerAddr: 1},
			{MaxReportsPerAddr: -1, FullVC: true},
		} {
			tr := recordedTrace(t, kernel, demand.Continuous)
			live := trace.NewLiveReplay(opt)
			for _, e := range tr.Events {
				live.Apply(e)
			}
			label := fmt.Sprintf("%s %+v", kernel, opt)
			assertSameDetector(t, label, live.Detector(), sizedReplay(tr, opt))
			assertSameDetector(t, label+" Replay", trace.Replay(tr, opt), sizedReplay(tr, opt))
			if sum, want := live.Summary(tr.Program), trace.Summarize(tr); !reflect.DeepEqual(sum, want) {
				t.Fatalf("%s: live summary %+v, want %+v", label, sum, want)
			}
		}
	}
}

// lateDimsTrace names every thread, mutex and semaphore for the first
// time mid-trace, after analysis has already built shadow state: a new
// thread by an access, by a mark, by a lock, by a semaphore wait and by
// barrier parties.
func lateDimsTrace() *trace.Trace {
	store := func(a mem.Addr) program.Op { return program.Op{Kind: program.OpStore, Addr: a} }
	load := func(a mem.Addr) program.Op { return program.Op{Kind: program.OpLoad, Addr: a} }
	sync := func(k program.Kind, id program.SyncID) program.Op { return program.Op{Kind: k, Sync: id} }
	rec := trace.NewRecorder("late-dims")
	rec.RecordOp(0, 0, store(64), true, true)
	rec.RecordOp(1, 1, load(64), true, true) // t1 appears: write-read race
	rec.RecordMark(2, 0, "late region")      // t2 appears by a mark
	rec.RecordOp(2, 0, store(128), false, true)
	rec.RecordOp(0, 0, sync(program.OpLock, 2), false, true) // mutexes 0-2 appear
	rec.RecordOp(0, 0, store(192), false, true)
	rec.RecordOp(0, 0, sync(program.OpUnlock, 2), false, true)
	rec.RecordOp(3, 1, sync(program.OpLock, 2), false, true) // t3 appears, ordered after t0
	rec.RecordOp(3, 1, load(192), false, true)
	rec.RecordOp(3, 1, sync(program.OpUnlock, 2), false, true)
	rec.RecordOp(1, 1, sync(program.OpSignal, 1), false, true) // semaphores 0-1 appear
	rec.RecordOp(4, 0, sync(program.OpWait, 1), false, true)   // t4 appears, ordered after t1
	rec.RecordOp(4, 0, load(64), false, true)                  // still races t0's store
	rec.RecordBarrier(0, []vclock.TID{0, 1, 2, 3, 4, 5}, true) // t5 appears in the parties
	rec.RecordOp(5, 1, load(128), false, true)                 // ordered by the barrier
	rec.RecordOp(6, 0, store(128), true, true)                 // t6 races t2 and t5
	return rec.Trace()
}

func TestLiveReplayGrowsOnLateDims(t *testing.T) {
	tr := lateDimsTrace()
	for _, opt := range []detector.Options{{MaxReportsPerAddr: -1}, {MaxReportsPerAddr: -1, FullVC: true}} {
		live := trace.NewLiveReplay(opt)
		for _, e := range tr.Events {
			live.Apply(e)
		}
		want := sizedReplay(tr, opt)
		assertSameDetector(t, fmt.Sprintf("%+v", opt), live.Detector(), want)
		if len(want.Reports()) < 3 {
			t.Fatalf("%+v: the trace should race at least 3 times, got %v", opt, want.Reports())
		}
		if got, want := live.Summary(tr.Program), trace.Summarize(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("live summary %+v, want %+v", got, want)
		}
	}
}

// TestLiveReplayKeepsNoEvents pins that Apply retains nothing per event:
// once the word's shadow state exists, 100 000 applications of the same
// event allocate under a fixed budget (retaining each Event would cost at
// least 104 B apiece, over 10 MB).
func TestLiveReplayKeepsNoEvents(t *testing.T) {
	const n, budget = 100_000, 64 << 10
	live := trace.NewLiveReplay(detector.Options{})
	e := trace.Event{TID: 3, Kind: program.OpStore, Addr: 64, Analyzed: true}
	live.Apply(e)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		live.Apply(e)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("%d applies allocated %d bytes, budget %d", n, got, budget)
	}
	if s := live.Summary("steady"); s.Events != n+1 || s.Threads != 4 {
		t.Fatalf("summary %+v, want %d events over 4 threads", s, n+1)
	}
}

func TestLiveReplayEmptyDetector(t *testing.T) {
	live := trace.NewLiveReplay(detector.Options{})
	if live.Races() != nil {
		t.Fatal("empty replay has races")
	}
	if live.Detector() == nil {
		t.Fatal("empty replay returned nil detector")
	}
}

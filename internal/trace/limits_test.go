package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// limitsTestTrace builds a small valid trace.
func limitsTestTrace(events int) *Trace {
	rec := NewRecorder("limits")
	for i := 0; i < events; i++ {
		rec.RecordOp(vclock.TID(i%4), 0, program.Op{Kind: program.OpLoad, Addr: 64}, i%2 == 0, true)
	}
	return rec.Trace()
}

func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return buf.Bytes()
}

func TestDecodeBinaryLimitedEventCap(t *testing.T) {
	raw := encodeTrace(t, limitsTestTrace(100))
	if _, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxEvents: 100}); err != nil {
		t.Fatalf("at-limit trace rejected: %v", err)
	}
	_, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxEvents: 99})
	var lim *LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if lim.What != "events" || lim.Limit != 99 || lim.Got != 100 {
		t.Fatalf("limit error = %+v", lim)
	}
}

func TestDecodeBinaryLimitedByteCap(t *testing.T) {
	raw := encodeTrace(t, limitsTestTrace(1000))
	if _, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxBytes: int64(len(raw))}); err != nil {
		t.Fatalf("at-limit trace rejected: %v", err)
	}
	_, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxBytes: 64})
	var lim *LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if lim.What != "bytes" {
		t.Fatalf("limit error dimension = %q, want bytes", lim.What)
	}
}

// TestDecodeBinaryLyingCount feeds a header that declares more events than
// the stream holds: decode must fail at read time, never allocate for the
// declared count.
func TestDecodeBinaryLyingCount(t *testing.T) {
	raw := encodeTrace(t, limitsTestTrace(4))
	// Event count is a uvarint right after magic+name; for small traces it
	// is a single byte. Bump 4 → 100 (both single-byte uvarints).
	idx := len(magic) + 1 + len("limits")
	if raw[idx] != 4 {
		t.Fatalf("test assumption broken: count byte = %d", raw[idx])
	}
	raw[idx] = 100
	if _, err := DecodeBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated-under-count trace decoded")
	}
}

func TestDecodeBinaryDefaultLimitsRoundTrip(t *testing.T) {
	tr := limitsTestTrace(50)
	got, err := DecodeBinary(bytes.NewReader(encodeTrace(t, tr)))
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got.Program != tr.Program || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost data: %d events vs %d", len(got.Events), len(tr.Events))
	}
}

// TestPartiesNotAllocatedBeforeTheirBytes feeds a 20-byte trace whose one
// barrier event declares the maximum party count: the decoder must wait
// for the bytes (each party is at least one) instead of allocating the
// list, whether the input arrives at once or a byte at a time.
func TestPartiesNotAllocatedBeforeTheirBytes(t *testing.T) {
	raw := append([]byte("DRT1\x01p\x01"), flagBarrier, byte(program.OpBarrier), 0, 0, 0, 0, 0)
	raw = binary.AppendUvarint(raw, maxParties)
	raw = append(raw, 1, 2, 3)
	for _, chunk := range []int{len(raw), 1} {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewStreamDecoder(DecodeLimits{})
		for off := 0; off < len(raw) && err == nil; off += chunk {
			_, err = d.Feed(raw[off:min(off+chunk, len(raw))])
		}
		if err == nil {
			err = d.Finish()
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("chunk %d: truncated party list accepted", chunk)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
			t.Fatalf("chunk %d: decoding %d bytes allocated %d bytes", chunk, len(raw), got)
		}
	}
}

// idTrace encodes a one-event trace with the given raw TID and Sync
// varints, plus a barrier party list when parties is non-nil.
func idTrace(tid, sync uint64, parties []uint64) []byte {
	flags := byte(flagAnalyzed)
	kind := program.OpStore
	if parties != nil {
		flags |= flagBarrier
		kind = program.OpBarrier
	}
	raw := append([]byte("DRT1\x01p\x01"), flags, byte(kind))
	for _, v := range []uint64{tid, 0, 8, sync, 0} {
		raw = binary.AppendUvarint(raw, v)
	}
	if parties != nil {
		raw = binary.AppendUvarint(raw, uint64(len(parties)))
		for _, p := range parties {
			raw = binary.AppendUvarint(raw, p)
		}
	}
	return raw
}

// TestDecodeBoundsIDs: thread and sync IDs at or past their bounds are a
// *LimitError in one Feed and a byte at a time, checked on the raw value,
// so neither a negative TID nor one that wraps to a small int32 gets
// through; IDs just under the bounds decode.
func TestDecodeBoundsIDs(t *testing.T) {
	for _, c := range []struct {
		name  string
		raw   []byte
		what  string // "" when the trace must decode
		gotID uint64
	}{
		{name: "tid -1", raw: idTrace(0xffffffff, 0, nil), what: "thread ID", gotID: 0xffffffff},
		{name: "tid 65536", raw: idTrace(65536, 0, nil), what: "thread ID", gotID: 65536},
		{name: "tid 2^32+1", raw: idTrace(1<<32+1, 0, nil), what: "thread ID", gotID: 1<<32 + 1},
		{name: "tid 203561", raw: idTrace(203561, 0, nil), what: "thread ID", gotID: 203561},
		{name: "tid at bound", raw: idTrace(vclock.MaxThreads, 0, nil), what: "thread ID", gotID: vclock.MaxThreads},
		{name: "sync at bound", raw: idTrace(0, maxSyncIDs, nil), what: "sync ID", gotID: maxSyncIDs},
		{name: "sync 2^32", raw: idTrace(0, 1<<32, nil), what: "sync ID", gotID: 1 << 32},
		{name: "party at bound", raw: idTrace(0, 0, []uint64{0, vclock.MaxThreads}), what: "thread ID", gotID: vclock.MaxThreads},
		{name: "largest IDs", raw: idTrace(vclock.MaxThreads-1, maxSyncIDs-1, []uint64{vclock.MaxThreads - 1})},
	} {
		for _, chunk := range []int{len(c.raw), 1} {
			var err error
			d := NewStreamDecoder(DefaultDecodeLimits)
			for off := 0; off < len(c.raw) && err == nil; off += chunk {
				_, err = d.Feed(c.raw[off:min(off+chunk, len(c.raw))])
			}
			if err == nil {
				err = d.Finish()
			}
			if c.what == "" {
				if err != nil {
					t.Fatalf("%s, chunk %d: %v", c.name, chunk, err)
				}
				continue
			}
			var lim *LimitError
			if !errors.As(err, &lim) || lim.What != c.what || lim.Got != c.gotID {
				t.Fatalf("%s, chunk %d: err %v, want a %s LimitError for %d", c.name, chunk, err, c.what, c.gotID)
			}
		}
	}
}

// TestDecodeJSONBoundsIDs: the JSON decoder refuses the same IDs, negative
// ones included.
func TestDecodeJSONBoundsIDs(t *testing.T) {
	for _, doc := range []string{
		`{"events":[{"tid":-5,"kind":1,"analyzed":true}]}`,
		`{"events":[{"tid":1024,"kind":1,"analyzed":true}]}`,
		`{"events":[{"tid":0,"kind":4,"sync":-1,"analyzed":true}]}`,
		`{"events":[{"tid":0,"kind":4,"sync":65536,"analyzed":true}]}`,
		`{"events":[{"kind":8,"parties":[0,-1],"analyzed":true}]}`,
	} {
		_, err := DecodeJSON(strings.NewReader(doc))
		var lim *LimitError
		if !errors.As(err, &lim) {
			t.Fatalf("%s: err %v, want a *LimitError", doc, err)
		}
	}
	if _, err := DecodeJSON(strings.NewReader(`{"events":[{"tid":1023,"kind":4,"sync":65535}]}`)); err != nil {
		t.Fatalf("largest IDs refused: %v", err)
	}
}

package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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

package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/trace"
)

// FuzzDecodeBinary asserts the binary decoder never panics and never
// accepts garbage silently: any input either round-trips as a valid trace
// or errors. A decoded trace's replay, which grows its detector as IDs
// appear, must equal a detector sized up front from Trace.Dims, in
// reports and in full Stats. The decode bounds on thread and sync IDs keep
// the replay's per-thread clocks small; the checked-in seeds are inputs
// that panicked, aliased two threads or asked for gigabytes of clocks
// before those bounds.
func FuzzDecodeBinary(f *testing.F) {
	// Seed with a real trace and a few corruptions of it.
	tr := recordedTrace(&testing.T{}, "racy_flag", demand.Continuous)
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("DRT1"))
	f.Add([]byte{})
	corrupted := append([]byte(nil), valid...)
	for i := 10; i < len(corrupted); i += 97 {
		corrupted[i] ^= 0xff
	}
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded trace must be safely replayable and
		// re-encodable.
		opt := detector.Options{MaxReportsPerAddr: -1}
		assertSameDetector(t, "fuzz", trace.Replay(got, opt), sizedReplay(got, opt))
		var out bytes.Buffer
		if err := trace.EncodeBinary(&out, got); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
	})
}

// FuzzStreamDecoderMatchesBatch is the differential target: for any input
// and any chunk size, chunked Feed+Finish accepts exactly when DecodeBinary
// does, and then yields the same program and events. It decodes and never
// replays, so its cost stays proportional to the input.
func FuzzStreamDecoderMatchesBatch(f *testing.F) {
	tr := recordedTrace(&testing.T{}, "racy_flag", demand.Continuous)
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, uint16(64))
	f.Add(append(append([]byte(nil), valid...), 0), uint16(64))
	f.Add(valid[:len(valid)-3], uint16(64))
	f.Add(valid, uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		want, wantErr := trace.DecodeBinary(bytes.NewReader(data))
		n := max(int(chunk), 1)
		dec := trace.NewStreamDecoder(trace.DefaultDecodeLimits)
		var events []trace.Event
		var err error
		for off := 0; off < len(data) && err == nil; off += n {
			var evs []trace.Event
			evs, err = dec.Feed(data[off:min(off+n, len(data))])
			events = append(events, evs...)
		}
		if err == nil {
			err = dec.Finish()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("chunk %d: stream error %v, batch error %v", n, err, wantErr)
		}
		if err != nil {
			return
		}
		if dec.Program() != want.Program {
			t.Fatalf("chunk %d: program %q, batch %q", n, dec.Program(), want.Program)
		}
		if !reflect.DeepEqual(events, want.Events) {
			t.Fatalf("chunk %d: %d events differ from batch's %d", n, len(events), len(want.Events))
		}
	})
}

// FuzzDecodeJSON mirrors the binary fuzz for the JSON codec.
func FuzzDecodeJSON(f *testing.F) {
	tr := recordedTrace(&testing.T{}, "micro_private", demand.Off)
	var buf bytes.Buffer
	if err := trace.EncodeJSON(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"program":"x","events":[{"seq":1,"tid":-5,"kind":99}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = trace.Replay(got, detector.Options{}).Reports()
	})
}

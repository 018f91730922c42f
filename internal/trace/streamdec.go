package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"demandrace/internal/cache"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// StreamDecoder is the DRT1 parser. It accepts the byte stream in
// arbitrary fragments (down to one byte at a time) and yields events as
// soon as they are complete; DecodeBinaryLimited is one Feed of the whole
// input. Every bound lives here: the DecodeLimits byte and event caps and
// the name, party and label caps (as typed *LimitError values the HTTP
// layer answers with 413), the rejection of bytes past the declared event
// count, and the Seq numbering (i+1).
//
// Errors are sticky: once Feed or Finish fails, every later call returns
// the same error.
type StreamDecoder struct {
	lim DecodeLimits

	buf []byte // unconsumed tail of the last Feed: one partial header or event
	fed int64  // total bytes accepted across all Feeds

	headerDone bool
	program    string
	declared   uint64 // event count from the header
	decoded    uint64

	err error
}

// minEventBytes is the shortest encoded event: flags, kind, and five
// one-byte varints.
const minEventBytes = 7

// NewStreamDecoder builds a decoder bounded by lim (zero fields mean
// unlimited).
func NewStreamDecoder(lim DecodeLimits) *StreamDecoder {
	return &StreamDecoder{lim: lim}
}

// Program returns the trace's program name ("" until the header parses).
func (d *StreamDecoder) Program() string { return d.program }

// Decoded returns how many events have been yielded so far.
func (d *StreamDecoder) Decoded() uint64 { return d.decoded }

// Declared returns the event count the header promised (0 until the
// header parses).
func (d *StreamDecoder) Declared() uint64 { return d.declared }

// fail latches err and returns it.
func (d *StreamDecoder) fail(err error) error {
	d.err = err
	return err
}

// Feed appends p to the stream and returns every event completed by it.
// Events already returned are never re-returned; a fragment that ends
// mid-event is buffered until the rest arrives. p is not retained.
func (d *StreamDecoder) Feed(p []byte) ([]Event, error) {
	if d.err != nil {
		return nil, d.err
	}
	d.fed += int64(len(p))
	if d.lim.MaxBytes > 0 && d.fed > d.lim.MaxBytes {
		return nil, d.fail(&LimitError{What: "bytes", Limit: uint64(d.lim.MaxBytes), Got: uint64(d.lim.MaxBytes)})
	}
	b := p
	if len(d.buf) > 0 {
		d.buf = append(d.buf, p...)
		b = d.buf
	}
	off := 0
	if !d.headerDone {
		n, err := d.parseHeader(b)
		if err != nil {
			return nil, d.fail(err)
		}
		off = n
	}
	var out []Event
	for d.headerDone && d.decoded < d.declared {
		ev, n, err := parseStreamEvent(b[off:])
		if err != nil {
			return out, d.fail(err)
		}
		if n == 0 {
			break // need more bytes
		}
		if out == nil {
			// Sized once: no more events than the bytes in hand can hold.
			out = make([]Event, 0, min(d.declared-d.decoded, uint64(len(b)-off)/minEventBytes))
		}
		off += n
		d.decoded++
		ev.Seq = d.decoded
		out = append(out, ev)
	}
	if d.headerDone && d.decoded == d.declared && off < len(b) {
		return out, d.fail(fmt.Errorf("trace: %d bytes past the declared %d events",
			len(b)-off, d.declared))
	}
	d.buf = append(d.buf[:0], b[off:]...)
	return out, nil
}

// Finish declares the stream complete. It fails if the input ended inside
// the header, short of the declared event count, or had already failed.
func (d *StreamDecoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if !d.headerDone {
		return d.fail(fmt.Errorf("trace: stream ended inside the header (%d bytes)", d.fed))
	}
	if d.decoded < d.declared {
		return d.fail(fmt.Errorf("trace: stream ended after %d of %d declared events",
			d.decoded, d.declared))
	}
	return nil
}

// parseHeader tries to parse magic + program name + event count from b.
// Returns consumed == 0 when b is incomplete.
func (d *StreamDecoder) parseHeader(b []byte) (consumed int, err error) {
	if len(b) < len(magic) {
		return 0, nil
	}
	if [4]byte(b[:4]) != magic {
		return 0, errors.New("trace: bad magic (not a DRT1 trace)")
	}
	off := len(magic)
	nameLen, n := binary.Uvarint(b[off:])
	if n == 0 {
		return 0, nil
	}
	if n < 0 {
		return 0, errors.New("trace: malformed program-name length")
	}
	off += n
	if nameLen > maxNameLen {
		return 0, &LimitError{What: "program name", Limit: maxNameLen, Got: nameLen}
	}
	if uint64(len(b)-off) < nameLen {
		return 0, nil
	}
	name := string(b[off : off+int(nameLen)])
	off += int(nameLen)
	count, n := binary.Uvarint(b[off:])
	if n == 0 {
		return 0, nil
	}
	if n < 0 {
		return 0, errors.New("trace: malformed event count")
	}
	off += n
	if d.lim.MaxEvents > 0 && count > d.lim.MaxEvents {
		return 0, &LimitError{What: "events", Limit: d.lim.MaxEvents, Got: count}
	}
	d.program = name
	d.declared = count
	d.headerDone = true
	return off, nil
}

// parseStreamEvent tries to parse one encoded event from b. Returns
// consumed == 0 when b ends mid-event; errors are terminal.
func parseStreamEvent(b []byte) (Event, int, error) {
	if len(b) < 2 {
		return Event{}, 0, nil
	}
	flags, kind := b[0], b[1]
	off := 2
	var vals [5]uint64
	for j := range vals {
		v, n := binary.Uvarint(b[off:])
		if n == 0 {
			return Event{}, 0, nil
		}
		if n < 0 {
			return Event{}, 0, errors.New("trace: malformed event field")
		}
		vals[j] = v
		off += n
	}
	e := Event{
		Kind:     program.Kind(kind),
		HITM:     flags&flagHITM != 0,
		Analyzed: flags&flagAnalyzed != 0,
		TID:      vclock.TID(vals[0]),
		Ctx:      cache.Context(vals[1]),
		Addr:     mem.Addr(vals[2]),
		Sync:     program.SyncID(vals[3]),
		N:        vals[4],
	}
	if flags&flagBarrier != 0 {
		np, n := binary.Uvarint(b[off:])
		if n == 0 {
			return Event{}, 0, nil
		}
		if n < 0 {
			return Event{}, 0, errors.New("trace: malformed barrier party count")
		}
		off += n
		if np > maxParties {
			return Event{}, 0, &LimitError{What: "barrier parties", Limit: maxParties, Got: np}
		}
		if uint64(len(b)-off) < np {
			return Event{}, 0, nil // each party is at least one byte
		}
		e.Parties = make([]vclock.TID, np)
		for j := range e.Parties {
			v, n := binary.Uvarint(b[off:])
			if n == 0 {
				return Event{}, 0, nil
			}
			if n < 0 {
				return Event{}, 0, errors.New("trace: malformed barrier party")
			}
			e.Parties[j] = vclock.TID(v)
			off += n
		}
	}
	if flags&flagStr != 0 {
		sl, n := binary.Uvarint(b[off:])
		if n == 0 {
			return Event{}, 0, nil
		}
		if n < 0 {
			return Event{}, 0, errors.New("trace: malformed label length")
		}
		off += n
		if sl > maxStrLen {
			return Event{}, 0, &LimitError{What: "label", Limit: maxStrLen, Got: sl}
		}
		if uint64(len(b)-off) < sl {
			return Event{}, 0, nil
		}
		e.Str = string(b[off : off+int(sl)])
		off += int(sl)
	}
	return e, off, nil
}

// Package trace records the op-level event stream of a run and replays it
// through a detector offline.
//
// Tracing separates "execute once" from "analyze many times": a trace
// recorded under any policy replays through fresh detectors with different
// options (FastTrack vs full-VC, different report caps) without re-running
// the simulator, mirroring how commercial tools support post-mortem
// analysis of collected logs. Traces encode to a compact varint binary
// format and to JSON.
package trace

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"demandrace/internal/cache"
	"demandrace/internal/detector"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// Event is one recorded execution event. Ordinary ops carry TID/Ctx/Op;
// barrier releases carry Parties instead (Op.Kind == OpBarrier).
type Event struct {
	// Seq is the global order of the event.
	Seq uint64 `json:"seq"`
	// TID is the executing thread (unused for barrier releases).
	TID vclock.TID `json:"tid"`
	// Ctx is the hardware context.
	Ctx cache.Context `json:"ctx"`
	// Kind, Addr, Sync, N mirror program.Op.
	Kind program.Kind   `json:"kind"`
	Addr mem.Addr       `json:"addr,omitempty"`
	Sync program.SyncID `json:"sync,omitempty"`
	N    uint64         `json:"n,omitempty"`
	// Parties lists barrier participants (barrier releases only).
	Parties []vclock.TID `json:"parties,omitempty"`
	// Str carries the region label of mark events.
	Str string `json:"str,omitempty"`
	// HITM marks memory events served by a remote Modified line.
	HITM bool `json:"hitm,omitempty"`
	// Analyzed marks events the demand controller let the detector see.
	Analyzed bool `json:"analyzed,omitempty"`
}

// Op reconstructs the program op of an ordinary event.
func (e Event) Op() program.Op {
	return program.Op{Kind: e.Kind, Addr: e.Addr, Sync: e.Sync, N: e.N}
}

// Trace is a recorded run.
type Trace struct {
	Program string  `json:"program"`
	Events  []Event `json:"events"`
}

// Recorder accumulates events; install it in the runner configuration.
type Recorder struct {
	tr  Trace
	seq uint64
}

// NewRecorder starts an empty recorder for the named program.
func NewRecorder(name string) *Recorder {
	return &Recorder{tr: Trace{Program: name}}
}

// RecordOp appends an ordinary op event.
func (r *Recorder) RecordOp(t vclock.TID, ctx cache.Context, op program.Op, hitm, analyzed bool) {
	r.seq++
	r.tr.Events = append(r.tr.Events, Event{
		Seq: r.seq, TID: t, Ctx: ctx,
		Kind: op.Kind, Addr: op.Addr, Sync: op.Sync, N: op.N,
		HITM: hitm, Analyzed: analyzed,
	})
}

// RecordMark appends a region-annotation event.
func (r *Recorder) RecordMark(t vclock.TID, ctx cache.Context, label string) {
	r.seq++
	r.tr.Events = append(r.tr.Events, Event{
		Seq: r.seq, TID: t, Ctx: ctx, Kind: program.OpMark, Str: label,
	})
}

// RecordBarrier appends a barrier-release event.
func (r *Recorder) RecordBarrier(id program.SyncID, parties []vclock.TID, analyzed bool) {
	r.seq++
	r.tr.Events = append(r.tr.Events, Event{
		Seq: r.seq, Kind: program.OpBarrier, Sync: id,
		Parties: append([]vclock.TID(nil), parties...), Analyzed: analyzed,
	})
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return &r.tr }

// Replay feeds a trace's events through a LiveReplay built with opt and
// returns its detector. Thread and sync-object counts are inferred from
// the trace as it is applied.
func Replay(tr *Trace, opt detector.Options) *detector.Detector {
	l := NewLiveReplay(opt)
	for _, e := range tr.Events {
		l.Apply(e)
	}
	return l.Detector()
}

// applyEvent feeds one event into det: mark events always set the region,
// everything else is gated on the event having been analyzed. It is the
// single event→detector mapping, used by LiveReplay.Apply.
func applyEvent(det *detector.Detector, e Event) {
	if e.Kind == program.OpMark {
		det.SetRegion(e.TID, e.Str)
		return
	}
	if !e.Analyzed {
		return
	}
	switch e.Kind {
	case program.OpLoad:
		det.OnRead(e.TID, e.Addr)
	case program.OpStore:
		det.OnWrite(e.TID, e.Addr)
	case program.OpAtomicLoad:
		det.OnAtomicLoad(e.TID, e.Addr)
	case program.OpAtomicStore:
		det.OnAtomicStore(e.TID, e.Addr)
	case program.OpLock:
		det.OnLock(e.TID, e.Sync)
	case program.OpUnlock:
		det.OnUnlock(e.TID, e.Sync)
	case program.OpSignal:
		det.OnSignal(e.TID, e.Sync)
	case program.OpWait:
		det.OnWait(e.TID, e.Sync)
	case program.OpBarrier:
		det.OnBarrierRelease(e.Parties)
	}
}

// Summary aggregates a trace's event population.
type Summary struct {
	Program  string
	Events   int
	Threads  int
	ByKind   map[string]int
	HITM     int
	Analyzed int
}

// Summarize computes a trace's Summary.
func Summarize(tr *Trace) Summary {
	var t tally
	for _, e := range tr.Events {
		t.add(e)
	}
	return t.summary(tr.Program)
}

// tally is what Summarize and LiveReplay keep of the events seen so far:
// the dimensions they span and the Summary counts, with kinds counted in
// an array rather than the string-keyed map a Summary shows.
type tally struct {
	dims
	events, hitm, analyzed int
	byKind                 [256]int // indexed by program.Kind
}

// add counts e and widens the dimensions to cover it, reporting whether
// they grew.
func (t *tally) add(e Event) bool {
	t.events++
	t.byKind[e.Kind]++
	if e.HITM {
		t.hitm++
	}
	if e.Analyzed {
		t.analyzed++
	}
	return t.cover(e)
}

// summary renders the counts as the Summary of the named program.
func (t *tally) summary(name string) Summary {
	s := Summary{Program: name, Events: t.events, Threads: t.threads,
		ByKind: map[string]int{}, HITM: t.hitm, Analyzed: t.analyzed}
	for k, n := range t.byKind {
		if n > 0 {
			s.ByKind[program.Kind(k).String()] = n
		}
	}
	return s
}

// Dims infers (threads, mutexes, semaphores) from the event stream.
func (tr *Trace) Dims() (threads, mutexes, sems int) {
	var d dims
	for _, e := range tr.Events {
		d.cover(e)
	}
	return d.threads, d.mutexes, d.sems
}

// dims is the detector shape a prefix of events needs.
type dims struct{ threads, mutexes, sems int }

// cover widens d to every thread and sync ID e names (its TID, its
// barrier parties, and its Sync as a mutex or a semaphore by kind) and
// reports whether d grew. Trace.Dims and tally.add share it.
func (d *dims) cover(e Event) bool {
	grew := widen(&d.threads, int(e.TID))
	for _, p := range e.Parties {
		grew = widen(&d.threads, int(p)) || grew
	}
	switch e.Kind {
	case program.OpLock, program.OpUnlock:
		grew = widen(&d.mutexes, int(e.Sync)) || grew
	case program.OpSignal, program.OpWait:
		grew = widen(&d.sems, int(e.Sync)) || grew
	}
	return grew
}

// widen raises *n to id+1 when id is past it.
func widen(n *int, id int) bool {
	if id < *n {
		return false
	}
	*n = id + 1
	return true
}

// ---- binary encoding ----

// magic and version guard the binary format.
var magic = [4]byte{'D', 'R', 'T', '1'}

const (
	flagHITM     = 1 << 0
	flagAnalyzed = 1 << 1
	flagBarrier  = 1 << 2
	flagStr      = 1 << 3
)

// EncodeBinary writes the trace in the compact varint format.
func EncodeBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(tr.Program)))
	if _, err := bw.WriteString(tr.Program); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(tr.Events)))
	for _, e := range tr.Events {
		var flags byte
		if e.HITM {
			flags |= flagHITM
		}
		if e.Analyzed {
			flags |= flagAnalyzed
		}
		if len(e.Parties) > 0 {
			flags |= flagBarrier
		}
		if e.Str != "" {
			flags |= flagStr
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		writeUvarint(bw, uint64(e.TID))
		writeUvarint(bw, uint64(e.Ctx))
		writeUvarint(bw, uint64(e.Addr))
		writeUvarint(bw, uint64(e.Sync))
		writeUvarint(bw, e.N)
		if flags&flagBarrier != 0 {
			writeUvarint(bw, uint64(len(e.Parties)))
			for _, p := range e.Parties {
				writeUvarint(bw, uint64(p))
			}
		}
		if flags&flagStr != 0 {
			writeUvarint(bw, uint64(len(e.Str)))
			if _, err := bw.WriteString(e.Str); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode limits: length fields in the input are untrusted, so no buffer is
// sized from one before the bytes it describes are in hand.
const (
	maxNameLen = 1 << 12
	maxStrLen  = 1 << 16
	maxParties = 1 << 16
)

// Thread and sync IDs index detector tables, so both decoders refuse an
// ID at or past its bound (vclock.MaxThreads threads, maxSyncIDs sync
// objects) before a detector is sized from it.
const maxSyncIDs = 1 << 16

// boundIDs checks an event's thread and sync IDs. They are taken as
// uint64, so a negative ID, or one the int32 conversion would wrap, is
// refused too.
func boundIDs(tid, sync uint64) error {
	return cmp.Or(boundID("thread ID", tid, vclock.MaxThreads), boundID("sync ID", sync, maxSyncIDs))
}

// boundID returns a *LimitError when id is not below n.
func boundID(what string, id, n uint64) error {
	if id < n {
		return nil
	}
	return &LimitError{What: what, Limit: n - 1, Got: id}
}

// DecodeLimits bounds what DecodeBinaryLimited and StreamDecoder accept
// from an untrusted trace. Zero fields mean "no bound for this dimension".
type DecodeLimits struct {
	// MaxEvents caps the event count a trace may declare (and decode).
	MaxEvents uint64
	// MaxBytes caps the total bytes of input, exactly: one byte more is a
	// *LimitError.
	MaxBytes int64
}

// DefaultDecodeLimits bounds decoding at 16 Mi events / 1 GiB of input —
// far above any trace the simulator produces, low enough that a malformed
// or hostile stream cannot exhaust memory.
var DefaultDecodeLimits = DecodeLimits{MaxEvents: 1 << 24, MaxBytes: 1 << 30}

// LimitError reports an input that exceeds a decode limit. It is the typed
// signal service-layer callers (the ddserved upload path) turn into an
// HTTP 413 instead of a generic parse failure.
type LimitError struct {
	// What names the exceeded dimension ("events", "bytes", "program name",
	// "barrier parties", "label", "thread ID", "sync ID").
	What string
	// Limit is the configured cap; Got is the offending value (for the
	// bytes dimension, Got is the limit at which reading stopped).
	Limit, Got uint64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("trace: %s %d exceeds decode limit %d", e.What, e.Got, e.Limit)
}

// DecodeBinary reads a trace written by EncodeBinary, bounded by
// DefaultDecodeLimits.
func DecodeBinary(r io.Reader) (*Trace, error) {
	return DecodeBinaryLimited(r, DefaultDecodeLimits)
}

// DecodeBinaryLimited reads a trace written by EncodeBinary, refusing input
// that exceeds lim with a *LimitError. It reads at most MaxBytes+1 bytes
// and hands them to a StreamDecoder in one Feed, so a batch decode and a
// streamed one accept exactly the same inputs.
func DecodeBinaryLimited(r io.Reader, lim DecodeLimits) (*Trace, error) {
	if lim.MaxBytes > 0 {
		r = io.LimitReader(r, lim.MaxBytes+1)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	d := NewStreamDecoder(lim)
	events, err := d.Feed(raw)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &Trace{Program: d.Program(), Events: events}, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) // bufio.Writer errors surface at Flush
}

// EncodeJSON writes the trace as JSON.
func EncodeJSON(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// DecodeJSON reads a JSON trace, refusing thread and sync IDs past their
// bounds with a *LimitError, as the binary decoder does.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, err
	}
	for _, e := range tr.Events {
		if err := boundIDs(uint64(e.TID), uint64(e.Sync)); err != nil {
			return nil, err
		}
		for _, p := range e.Parties {
			if err := boundID("thread ID", uint64(p), vclock.MaxThreads); err != nil {
				return nil, err
			}
		}
	}
	return &tr, nil
}

// Package ingest is the streaming upload layer of the race-analysis
// service: resumable chunked trace uploads with analyze-while-receiving.
//
// A session is opened (POST /v1/traces), fed CRC-checked chunks in
// sequence (PUT /v1/traces/{id}/chunks/{seq}), and sealed with a commit
// (POST /v1/traces/{id}/commit). Three properties shape the protocol:
//
//   - Chunks are idempotent. A sequence number at the session's high-water
//     mark applies; one below it is a duplicate (a client retrying after a
//     lost ack) and is acknowledged without re-applying, verified against
//     the stored CRC so a *different* payload under an old seq is caught;
//     one above it is a gap the client must resync from (the status
//     endpoint reports the high-water mark to resume at).
//   - Analysis rides the stream. Each applied chunk feeds
//     trace.StreamDecoder (the one DRT1 parser; the batch upload path
//     runs it as a single Feed), and its completed events advance a live
//     detector (trace.LiveReplay), so races surface while the upload is
//     still in flight — as partial reports and race_found bus events —
//     instead of after a post-hoc batch replay. The commit-time result is
//     byte-identical to the batch path on the same bytes.
//   - Backpressure is explicit. Session quota and concurrent-apply bounds
//     reject with typed errors the HTTP layer maps to 429 + Retry-After;
//     per-chunk and whole-stream size caps map to 413 via the same
//     *trace.LimitError a batch upload gets.
//
// Idle sessions are garbage-collected: an upload abandoned mid-stream
// cannot pin detector shadow state forever.
package ingest

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"log/slog"
	"sync"
	"time"

	"demandrace/internal/detector"
	"demandrace/internal/obs"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/obs/stream"
	"demandrace/internal/trace"
)

// Session states, reported in SessionStatus.State.
const (
	StateReceiving = "receiving"
	StateCommitted = "committed"
	StateFailed    = "failed"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNoSession reports an unknown (or GC-reclaimed) session ID (404).
	ErrNoSession = errors.New("ingest: no such session")
	// ErrSessionQuota rejects an open because too many sessions are live
	// (429 + Retry-After).
	ErrSessionQuota = errors.New("ingest: session quota exceeded")
	// ErrBusy rejects a chunk write because too many applies are in
	// flight (429 + Retry-After).
	ErrBusy = errors.New("ingest: too many chunk writes in flight")
	// ErrSealed rejects a chunk write to a committed session (409).
	ErrSealed = errors.New("ingest: session already committed")
	// ErrCommitPending rejects a concurrent duplicate commit (409; the
	// first commit is still registering its job).
	ErrCommitPending = errors.New("ingest: commit in progress")
)

// GapError rejects a chunk whose sequence number skips ahead of the
// session's high-water mark; the client should resync from Want (409).
type GapError struct {
	Seq, Want uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("ingest: chunk seq %d skips ahead (next expected %d)", e.Seq, e.Want)
}

// CRCError rejects a chunk whose payload does not match its declared or
// previously-stored CRC — transport corruption or a client replaying a
// different payload under an old sequence number.
type CRCError struct {
	Seq       uint64
	Want, Got uint32
}

func (e *CRCError) Error() string {
	return fmt.Sprintf("ingest: chunk %d crc mismatch (want %08x, got %08x)", e.Seq, e.Want, e.Got)
}

// FailedError reports an operation on a session that already failed
// (decode error on an earlier chunk); Reason is the original failure.
type FailedError struct {
	Reason string
}

func (e *FailedError) Error() string {
	return "ingest: session failed: " + e.Reason
}

// IncompleteError rejects a commit of a stream that ended short of its
// declared event count.
type IncompleteError struct {
	Decoded, Declared uint64
	Cause             error
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("ingest: commit of incomplete stream (%d of %d events): %v",
		e.Decoded, e.Declared, e.Cause)
}

// castagnoli is the chunk-checksum polynomial (CRC-32C, the one storage
// systems use; distinct from the IEEE polynomial internal/store uses for
// its on-disk records, so a cross-wired checksum cannot accidentally pass).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC-32C a client should declare for a chunk (the
// X-Chunk-Crc32c request header).
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Config shapes a Manager. Zero fields take defaults.
type Config struct {
	// MaxSessions bounds concurrently live sessions (default 64).
	MaxSessions int
	// MaxInflight bounds concurrent chunk applies across all sessions
	// (default 2× MaxSessions); excess writes get ErrBusy.
	MaxInflight int
	// MaxChunkBytes bounds one chunk's payload (default 4 MiB).
	MaxChunkBytes int64
	// Limits bound the whole decoded stream, mirroring the batch upload
	// path (byte cap enforced on total fed bytes, event cap on the
	// declared count).
	Limits trace.DecodeLimits
	// IdleTimeout is how long a session may sit without a write before
	// the GC reclaims it (default 2m). Committed sessions idle out too —
	// their sealed result lives in the job store, the session only backs
	// the partial endpoint.
	IdleTimeout time.Duration
	// GCInterval paces the idle sweep (default IdleTimeout/4, floored at
	// 1s).
	GCInterval time.Duration
	// Node names the process in span tracks and bus events.
	Node string
	// Registry receives ingest metrics. Nil builds a private one.
	Registry *obs.Registry
	// Log receives operational logs. Nil discards them.
	Log *slog.Logger
	// Bus receives trace_chunk and race_found events. Nil is a no-op.
	Bus *stream.Bus
}

func (c Config) normalized() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * c.MaxSessions
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = 4 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.GCInterval <= 0 {
		c.GCInterval = c.IdleTimeout / 4
		if c.GCInterval < time.Second {
			c.GCInterval = time.Second
		}
	}
	if c.Node == "" {
		c.Node = "ddserved"
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Log == nil {
		c.Log = olog.Discard()
	}
	return c
}

// OpenOptions parameterize one session.
type OpenOptions struct {
	// Detector configures the live detector. The caller normalizes report
	// caps (the service maps MaxReports 0 → 1 exactly like its batch
	// replay), so commit-time results match the batch path.
	Detector detector.Options
	// Hash accumulates the session's raw bytes into the result's cache
	// key. The service seeds it with the same option prefix
	// TraceCacheKey uses, so a streamed upload and a batch upload of the
	// same bytes share one content address. Nil skips key computation.
	Hash hash.Hash
}

// chunkMeta remembers an applied chunk for duplicate verification without
// retaining its payload.
type chunkMeta struct {
	crc uint32
	len int
}

// Session is one resumable upload. All fields are guarded by mu; the
// manager holds its own lock only for the session map, so slow decodes on
// one session never block chunks of another.
type Session struct {
	ID string

	mu         sync.Mutex
	state      string
	failReason string
	dec        *trace.StreamDecoder
	live       *trace.LiveReplay
	hash       hash.Hash
	chunks     []chunkMeta
	bytes      int64
	lastActive time.Time
	rec        *obs.SpanRecorder
	jobID      string
	key        string
	// commitsnap holds the sealed result between Commit and SetJob so a
	// repeated commit after the job registered can answer idempotently.
	committedAt time.Time
}

// touchLocked refreshes the idle clock; callers hold s.mu.
func (s *Session) touchLocked() { s.lastActive = time.Now() }

// Commit is the sealed outcome of a session, everything the service needs
// to register the job: the trace's summary, the final detector, the
// content key, and the session's span recorder (chunk_receive /
// incremental_decode stages) for the job's waterfall.
type Commit struct {
	Summary  trace.Summary
	Detector *detector.Detector
	Key      string
	Rec      *obs.SpanRecorder
	// JobID is non-empty when the session was already sealed: the commit
	// is an idempotent replay and the caller should serve the existing
	// job instead of registering a new one.
	JobID string
}

// SessionStatus is the external snapshot of a session, served as JSON at
// GET /v1/traces/{id} and (with high_water) the client's resume handle.
type SessionStatus struct {
	Session   string `json:"session"`
	State     string `json:"state"`
	HighWater uint64 `json:"high_water"`
	Bytes     int64  `json:"bytes"`
	Events    uint64 `json:"events"`
	Races     int    `json:"races"`
	Program   string `json:"program,omitempty"`
	Job       string `json:"job,omitempty"`
	// MaxChunkBytes tells the client the largest chunk the server will
	// accept, so it can size its splits without a 413 round trip.
	MaxChunkBytes int64  `json:"max_chunk_bytes,omitempty"`
	Error         string `json:"error,omitempty"`
}

// Ack acknowledges one chunk write. HighWater is the next expected
// sequence number — after a duplicate it simply repeats the current mark,
// so a client can always continue from HighWater regardless of which
// branch the server took.
type Ack struct {
	Session   string `json:"session"`
	Seq       uint64 `json:"seq"`
	Duplicate bool   `json:"duplicate,omitempty"`
	HighWater uint64 `json:"high_water"`
	Bytes     int64  `json:"bytes"`
	Events    uint64 `json:"events"`
	Races     int    `json:"races"`
}

// Partial is the mid-stream race report served at GET /v1/jobs/{id}/partial.
type Partial struct {
	Session   string            `json:"session"`
	State     string            `json:"state"`
	Job       string            `json:"job,omitempty"`
	Program   string            `json:"program,omitempty"`
	HighWater uint64            `json:"high_water"`
	Bytes     int64             `json:"bytes"`
	Events    uint64            `json:"events"`
	Races     []detector.Report `json:"races"`
}

// Manager owns the session table: open/append/commit, quotas, and the
// idle GC.
type Manager struct {
	cfg Config
	log *slog.Logger
	bus *stream.Bus

	mu       sync.Mutex
	sessions map[string]*Session
	byJob    map[string]string // job ID → session ID, for partial-by-job
	seq      uint64
	inflight int

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool

	gOpen      *obs.Gauge
	cOpened    *obs.Counter
	cCommitted *obs.Counter
	cExpired   *obs.Counter
	cFailed    *obs.Counter
	cChunks    *obs.Counter
	cDupes     *obs.Counter
	cBytes     *obs.Counter
	cEvents    *obs.Counter
	cRaces     *obs.Counter
	cRejected  *obs.Counter
}

// NewManager builds a stopped manager; call Start to launch the idle GC.
func NewManager(cfg Config) *Manager {
	cfg = cfg.normalized()
	return &Manager{
		cfg:        cfg,
		log:        cfg.Log,
		bus:        cfg.Bus,
		sessions:   make(map[string]*Session),
		byJob:      make(map[string]string),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		gOpen:      cfg.Registry.Gauge(obs.IngestSessionsOpen),
		cOpened:    cfg.Registry.Counter(obs.IngestSessionsOpened),
		cCommitted: cfg.Registry.Counter(obs.IngestSessionsCommitted),
		cExpired:   cfg.Registry.Counter(obs.IngestSessionsExpired),
		cFailed:    cfg.Registry.Counter(obs.IngestSessionsFailed),
		cChunks:    cfg.Registry.Counter(obs.IngestChunks),
		cDupes:     cfg.Registry.Counter(obs.IngestChunkDupes),
		cBytes:     cfg.Registry.Counter(obs.IngestChunkBytes),
		cEvents:    cfg.Registry.Counter(obs.IngestEvents),
		cRaces:     cfg.Registry.Counter(obs.IngestRaces),
		cRejected:  cfg.Registry.Counter(obs.IngestRejected),
	}
}

// Config returns the manager's normalized configuration.
func (m *Manager) Config() Config { return m.cfg }

// Start launches the idle-session GC. Idempotent.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.gcLoop()
}

// Stop halts the GC loop. Safe if Start was never called.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.mu.Lock()
	started := m.started
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

// Open creates a session, enforcing the session quota.
func (m *Manager) Open(opts OpenOptions) (SessionStatus, error) {
	m.mu.Lock()
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.cRejected.Inc()
		return SessionStatus{}, ErrSessionQuota
	}
	m.seq++
	s := &Session{
		ID:         fmt.Sprintf("s-%d", m.seq),
		state:      StateReceiving,
		dec:        trace.NewStreamDecoder(m.cfg.Limits),
		live:       trace.NewLiveReplay(opts.Detector),
		hash:       opts.Hash,
		lastActive: time.Now(),
		rec:        obs.NewSpanRecorder(m.cfg.Node, 0),
	}
	m.sessions[s.ID] = s
	m.gOpen.Set(int64(len(m.sessions)))
	m.mu.Unlock()
	m.cOpened.Inc()
	m.log.Info("ingest session open", "session", s.ID)
	return m.statusOf(s), nil
}

// lookup returns the session or ErrNoSession.
func (m *Manager) lookup(id string) (*Session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, ErrNoSession
	}
	return s, nil
}

// Append applies one chunk. declaredCRC, when non-nil, is the client's
// CRC-32C for the payload (the X-Chunk-Crc32c header) and is verified
// before anything is applied. See the package comment for the
// duplicate/gap protocol.
func (m *Manager) Append(id string, seq uint64, data []byte, declaredCRC *uint32) (Ack, error) {
	// Inflight bound first: it protects the decode/analyze work, so it is
	// checked before any of that work starts.
	m.mu.Lock()
	if m.inflight >= m.cfg.MaxInflight {
		m.mu.Unlock()
		m.cRejected.Inc()
		return Ack{}, ErrBusy
	}
	m.inflight++
	s := m.sessions[id]
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.inflight--
		m.mu.Unlock()
	}()
	if s == nil {
		return Ack{}, ErrNoSession
	}

	if int64(len(data)) > m.cfg.MaxChunkBytes {
		m.cRejected.Inc()
		return Ack{}, &trace.LimitError{
			What: "chunk bytes", Limit: uint64(m.cfg.MaxChunkBytes), Got: uint64(len(data)),
		}
	}
	crc := Checksum(data)
	if declaredCRC != nil && *declaredCRC != crc {
		m.cRejected.Inc()
		return Ack{}, &CRCError{Seq: seq, Want: *declaredCRC, Got: crc}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	switch s.state {
	case StateCommitted:
		return Ack{}, ErrSealed
	case StateFailed:
		return Ack{}, &FailedError{Reason: s.failReason}
	}
	high := uint64(len(s.chunks))
	if seq < high {
		// Duplicate: the client never saw our ack. Verify it really is the
		// same chunk, then acknowledge without re-applying.
		prev := s.chunks[seq]
		if prev.crc != crc || prev.len != len(data) {
			m.cRejected.Inc()
			return Ack{}, &CRCError{Seq: seq, Want: prev.crc, Got: crc}
		}
		m.cDupes.Inc()
		m.log.Debug("ingest duplicate chunk", "session", s.ID, "seq", seq)
		return m.ackLocked(s, seq, true), nil
	}
	if seq > high {
		m.cRejected.Inc()
		return Ack{}, &GapError{Seq: seq, Want: high}
	}

	recvStart := time.Now()
	decStart := recvStart
	events, err := s.dec.Feed(data)
	if err != nil {
		m.failLocked(s, err)
		return Ack{}, err
	}
	prevRaces := len(s.live.Races())
	for _, e := range events {
		s.live.Apply(e)
	}
	decDur := time.Since(decStart)
	if s.hash != nil {
		s.hash.Write(data)
	}
	s.chunks = append(s.chunks, chunkMeta{crc: crc, len: len(data)})
	s.bytes += int64(len(data))

	s.rec.Add(obs.SpanRecord{
		Name: "incremental_decode", Start: decStart, Dur: decDur,
		Attrs: []obs.SpanAttr{
			{Key: "seq", Value: fmt.Sprint(seq)},
			{Key: "events", Value: fmt.Sprint(len(events))},
		},
	})
	s.rec.Add(obs.SpanRecord{
		Name: "chunk_receive", Start: recvStart, Dur: time.Since(recvStart),
		Attrs: []obs.SpanAttr{
			{Key: "seq", Value: fmt.Sprint(seq)},
			{Key: "bytes", Value: fmt.Sprint(len(data))},
		},
	})

	m.cChunks.Inc()
	m.cBytes.Add(uint64(len(data)))
	m.cEvents.Add(uint64(len(events)))

	races := s.live.Races()
	m.bus.Publish(stream.Event{
		Type: stream.TypeTraceChunk, Job: s.ID,
		Detail: map[string]string{
			"seq":    fmt.Sprint(seq),
			"bytes":  fmt.Sprint(len(data)),
			"events": fmt.Sprint(s.dec.Decoded()),
			"races":  fmt.Sprint(len(races)),
		},
	})
	for _, r := range races[prevRaces:] {
		m.cRaces.Inc()
		m.log.Info("race found mid-stream", "session", s.ID,
			"addr", fmt.Sprint(r.Addr), "kind", r.Kind.String())
		m.bus.Publish(stream.Event{
			Type: stream.TypeRaceFound, Job: s.ID,
			Detail: map[string]string{
				"addr": fmt.Sprint(r.Addr),
				"kind": r.Kind.String(),
				"cur":  fmt.Sprint(r.Cur),
				"prev": fmt.Sprint(r.Prev),
			},
		})
	}
	return m.ackLocked(s, seq, false), nil
}

// ackLocked snapshots an Ack; callers hold s.mu.
func (m *Manager) ackLocked(s *Session, seq uint64, dup bool) Ack {
	return Ack{
		Session:   s.ID,
		Seq:       seq,
		Duplicate: dup,
		HighWater: uint64(len(s.chunks)),
		Bytes:     s.bytes,
		Events:    s.dec.Decoded(),
		Races:     len(s.live.Races()),
	}
}

// failLocked moves the session to the failed state; callers hold s.mu.
func (m *Manager) failLocked(s *Session, err error) {
	s.state = StateFailed
	s.failReason = err.Error()
	m.cFailed.Inc()
	m.log.Warn("ingest session failed", "session", s.ID, "error", err.Error())
}

// Commit seals the session: the decoder must have seen the full declared
// stream, and the returned Commit carries everything needed to register
// the sealed job. A commit replayed after the job registered returns a
// Commit with only JobID set.
func (m *Manager) Commit(id string) (*Commit, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	switch s.state {
	case StateFailed:
		return nil, &FailedError{Reason: s.failReason}
	case StateCommitted:
		if s.jobID == "" {
			return nil, ErrCommitPending
		}
		return &Commit{JobID: s.jobID, Key: s.key, Rec: s.rec}, nil
	}
	if err := s.dec.Finish(); err != nil {
		ie := &IncompleteError{Decoded: s.dec.Decoded(), Declared: s.dec.Declared(), Cause: err}
		m.failLocked(s, ie)
		return nil, ie
	}
	s.state = StateCommitted
	s.committedAt = time.Now()
	if s.hash != nil {
		s.key = fmt.Sprintf("%x", s.hash.Sum(nil))
	}
	m.cCommitted.Inc()
	m.log.Info("ingest session committed", "session", s.ID,
		"chunks", len(s.chunks), "bytes", s.bytes, "events", s.dec.Decoded(),
		"races", len(s.live.Races()))
	return &Commit{
		Summary:  s.live.Summary(s.dec.Program()),
		Detector: s.live.Detector(),
		Key:      s.key,
		Rec:      s.rec,
	}, nil
}

// SetJob binds the registered job ID to a committed session, completing
// the commit handshake: later Status/Partial calls (by session or job ID)
// carry it, and a replayed commit answers with it.
func (m *Manager) SetJob(id, jobID string) {
	s, err := m.lookup(id)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.jobID = jobID
	s.mu.Unlock()
	m.mu.Lock()
	m.byJob[jobID] = id
	m.mu.Unlock()
}

// Status snapshots a session.
func (m *Manager) Status(id string) (SessionStatus, error) {
	s, err := m.lookup(id)
	if err != nil {
		return SessionStatus{}, err
	}
	return m.statusOf(s), nil
}

func (m *Manager) statusOf(s *Session) SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStatus{
		Session:       s.ID,
		State:         s.state,
		HighWater:     uint64(len(s.chunks)),
		Bytes:         s.bytes,
		Events:        s.dec.Decoded(),
		Races:         len(s.live.Races()),
		Program:       s.dec.Program(),
		Job:           s.jobID,
		MaxChunkBytes: m.cfg.MaxChunkBytes,
		Error:         s.failReason,
	}
}

// Partial returns the races found so far. id may be a session ID or the
// job ID of a committed session (after commit, the partial view is simply
// the complete race list).
func (m *Manager) Partial(id string) (Partial, error) {
	m.mu.Lock()
	if sid, ok := m.byJob[id]; ok {
		id = sid
	}
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return Partial{}, ErrNoSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Reports are only ever appended, so the slice as it stands is a
	// stable snapshot while later chunks apply.
	return Partial{
		Session:   s.ID,
		State:     s.state,
		Job:       s.jobID,
		Program:   s.dec.Program(),
		HighWater: uint64(len(s.chunks)),
		Bytes:     s.bytes,
		Events:    s.dec.Decoded(),
		Races:     s.live.Races(),
	}, nil
}

// Len returns the live session count.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// gcLoop sweeps idle sessions until Stop.
func (m *Manager) gcLoop() {
	defer close(m.done)
	tick := time.NewTicker(m.cfg.GCInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.sweep(time.Now())
		}
	}
}

// sweep reclaims sessions idle past the timeout. Exported indirectly via
// SweepNow for tests and deterministic drains.
func (m *Manager) sweep(now time.Time) {
	cutoff := now.Add(-m.cfg.IdleTimeout)
	m.mu.Lock()
	var expired []*Session
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := s.lastActive.Before(cutoff)
		state := s.state
		jobID := s.jobID
		s.mu.Unlock()
		if !idle {
			continue
		}
		delete(m.sessions, id)
		if jobID != "" {
			delete(m.byJob, jobID)
		}
		if state == StateReceiving {
			expired = append(expired, s)
		}
	}
	m.gOpen.Set(int64(len(m.sessions)))
	m.mu.Unlock()
	for _, s := range expired {
		m.cExpired.Inc()
		m.log.Warn("ingest session expired", "session", s.ID)
	}
}

// SweepNow runs one idle sweep immediately (tests, drain paths).
func (m *Manager) SweepNow() { m.sweep(time.Now()) }

// Package vclock implements vector clocks and FastTrack-style epochs, the
// timestamps from which the happens-before race detector is built.
//
// A vector clock maps each thread to the count of that thread's completed
// "operations" (in the detector's sense: increments happen at release-style
// synchronization events). Clock C1 happens-before C2 when C1 ≤ C2 pointwise
// and C1 ≠ C2. An Epoch c@t is the FastTrack compression of "the last access
// was by thread t at its local time c"; most variables only ever need an
// epoch, which is what makes FastTrack's common case O(1).
//
// Two pieces exist purely for the detector's allocation-free hot path:
// Epoch.TIDIs answers "is this epoch mine?" with a single integer compare
// (the SmartTrack-style ownership shortcut), and Pool recycles the full
// clocks that shadow read sets spill into, so inflating and collapsing a
// read-shared word costs no steady-state allocation.
package vclock

import (
	"fmt"
	"strings"
)

// TID identifies a simulated thread. Thread IDs are small dense integers
// assigned in spawn order by the scheduler.
type TID int32

// MaxThreads bounds the thread count an input may name (TIDs 0 to
// MaxThreads-1). It sits far below the epoch's 16-bit TID field, which
// aliases TID 65536 with TID 0, and keeps the detector's per-thread
// clocks (T clocks of T entries) at 4 MiB.
const MaxThreads = 1024

// Time is a single thread-local logical clock value.
type Time uint32

// VC is a vector clock. The zero value is usable and represents the clock
// that is ≤ every other clock. Index i holds the component for TID(i);
// missing tail entries are implicitly zero.
type VC struct {
	c []Time
}

// New returns a vector clock with capacity for n threads (all zero).
func New(n int) *VC {
	return &VC{c: make([]Time, n)}
}

// Get returns the component for thread t (zero if beyond the stored tail).
func (v *VC) Get(t TID) Time {
	if int(t) >= len(v.c) {
		return 0
	}
	return v.c[t]
}

// Set assigns the component for thread t, growing the vector as needed.
func (v *VC) Set(t TID, val Time) {
	v.grow(int(t) + 1)
	v.c[t] = val
}

// Tick increments thread t's own component and returns the new value.
func (v *VC) Tick(t TID) Time {
	v.grow(int(t) + 1)
	v.c[t]++
	return v.c[t]
}

func (v *VC) grow(n int) {
	if n <= len(v.c) {
		return
	}
	if n <= cap(v.c) {
		v.c = v.c[:n]
		return
	}
	nc := make([]Time, n, n*2)
	copy(nc, v.c)
	v.c = nc
}

// Join merges other into v pointwise (v := v ⊔ other).
func (v *VC) Join(other *VC) {
	v.grow(len(other.c))
	for i, t := range other.c {
		if t > v.c[i] {
			v.c[i] = t
		}
	}
}

// Copy returns an independent deep copy of v.
func (v *VC) Copy() *VC {
	nc := make([]Time, len(v.c))
	copy(nc, v.c)
	return &VC{c: nc}
}

// Reset returns v to the zero clock while keeping its backing capacity, so
// a pooled clock can be reused without reallocating. The stored components
// are zeroed before truncation because grow assumes the region between the
// length and the capacity is zero.
func (v *VC) Reset() {
	for i := range v.c {
		v.c[i] = 0
	}
	v.c = v.c[:0]
}

// Assign overwrites v with the contents of other.
func (v *VC) Assign(other *VC) {
	v.grow(len(other.c))
	copy(v.c, other.c)
	for i := len(other.c); i < len(v.c); i++ {
		v.c[i] = 0
	}
}

// LEQ reports whether v ≤ other pointwise (v happens-before-or-equals other).
func (v *VC) LEQ(other *VC) bool {
	for i, t := range v.c {
		if t > other.Get(TID(i)) {
			return false
		}
	}
	return true
}

// Equal reports pointwise equality (treating missing tails as zero).
func (v *VC) Equal(other *VC) bool {
	return v.LEQ(other) && other.LEQ(v)
}

// HappensBefore reports the strict order: v ≤ other and v ≠ other.
func (v *VC) HappensBefore(other *VC) bool {
	return v.LEQ(other) && !other.LEQ(v)
}

// Concurrent reports that neither clock happens-before the other.
func (v *VC) Concurrent(other *VC) bool {
	return !v.LEQ(other) && !other.LEQ(v)
}

// FirstConcurrent returns the lowest-TID component of a not ≤ b, or (-1, 0)
// when a ≤ b pointwise. Race reports use it to pick a deterministic
// representative from an access history that conflicts with the current
// thread's clock.
func FirstConcurrent(a, b *VC) (TID, Time) {
	for i := 0; i < a.Len(); i++ {
		t := TID(i)
		if a.Get(t) > b.Get(t) {
			return t, a.Get(t)
		}
	}
	return -1, 0
}

// Len returns the number of stored components (threads seen so far).
func (v *VC) Len() int { return len(v.c) }

// String renders the clock as <t0,t1,...>.
func (v *VC) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, t := range v.c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteByte('>')
	return b.String()
}

// Epoch is FastTrack's scalar timestamp c@t: thread t at local time c.
// It is packed into a single word so shadow memory stays compact.
// The zero Epoch (None) means "no access recorded".
type Epoch uint64

// None is the empty epoch: no access has been recorded.
const None Epoch = 0

// ReadShared is a sentinel epoch stored in shadow read slots whose read
// history has inflated to a full vector clock.
const ReadShared Epoch = ^Epoch(0)

// MakeEpoch packs thread t at time c into an epoch. Times start at 1 in the
// detector, so a packed epoch is never zero.
func MakeEpoch(t TID, c Time) Epoch {
	return Epoch(uint64(c)<<16 | uint64(uint16(t)) + 1)
}

// TIDOf unpacks the thread component.
func (e Epoch) TIDOf() TID { return TID(uint16(e) - 1) }

// TIDIs reports whether e's thread component is t, without unpacking —
// one compare on the detector's ownership fast path. None never matches
// (its packed TID field is 0, and packed TIDs start at 1). The caller must
// exclude ReadShared, whose TID field aliases thread 65534.
func (e Epoch) TIDIs(t TID) bool { return uint16(e) == uint16(t)+1 }

// TimeOf unpacks the time component.
func (e Epoch) TimeOf() Time { return Time(e >> 16) }

// LEQ reports whether epoch e happens-before-or-equals clock v:
// c@t ≤ V iff c ≤ V[t].
func (e Epoch) LEQ(v *VC) bool {
	if e == None {
		return true
	}
	return e.TimeOf() <= v.Get(e.TIDOf())
}

func (e Epoch) String() string {
	switch e {
	case None:
		return "⊥"
	case ReadShared:
		return "SHARED"
	default:
		return fmt.Sprintf("%d@%d", e.TimeOf(), e.TIDOf())
	}
}

// Pool recycles vector clocks so the detector's steady state allocates
// nothing: a read set that spills past the shadow state's inline slots
// takes a clock from the pool, and the next write to that word returns it.
// The zero Pool is ready to use. Not safe for concurrent use — a pool
// belongs to one detector, which is itself single-threaded.
type Pool struct {
	free []*VC
}

// Get returns a zeroed clock, reusing a returned one when available.
func (p *Pool) Get() *VC {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return New(0)
}

// Put resets v and makes it available to the next Get. Putting nil is a
// no-op.
func (p *Pool) Put(v *VC) {
	if v == nil {
		return
	}
	v.Reset()
	p.free = append(p.free, v)
}

package trace

import "demandrace/internal/detector"

// LiveReplay is the one replay path: it applies each event to a detector
// once, as the event arrives, and keeps no events. The trace's final
// dimensions need not be known up front. When an event names a thread or
// sync object past the current dimensions the detector grows in place
// (detector.Grow), which leaves it in the state of a detector sized to
// the final dimensions from the start. Replay is a LiveReplay fed from a
// slice, and a streamed upload feeds one chunk by chunk, so both report
// the same races and stats for the same events.
//
// Alongside the detector it keeps the running Summary counts, which is
// all a finished upload needs besides the detector.
type LiveReplay struct {
	det  *detector.Detector
	seen tally
}

// NewLiveReplay starts an empty live replay with the given detector options.
func NewLiveReplay(opt detector.Options) *LiveReplay {
	return &LiveReplay{det: detector.New(0, 0, 0, opt)}
}

// Apply feeds one event. Events must arrive in trace order.
func (l *LiveReplay) Apply(e Event) {
	if l.seen.add(e) {
		l.det.Grow(l.seen.threads, l.seen.mutexes, l.seen.sems)
	}
	applyEvent(l.det, e)
}

// Detector returns the detector; with no events applied it is the empty
// zero-dimension detector.
func (l *LiveReplay) Detector() *detector.Detector { return l.det }

// Races returns the reports found so far. The slice only grows between
// calls.
func (l *LiveReplay) Races() []detector.Report { return l.det.Reports() }

// Summary returns the counts of the events applied so far as the Summary
// of the named program (the event stream does not carry the name).
func (l *LiveReplay) Summary(program string) Summary {
	return l.seen.summary(program)
}

// Rebuilds returns 0: the detector grows in place and is never rebuilt.
// It is kept only because the benchmark harness in perfbench/ still reads
// it.
func (l *LiveReplay) Rebuilds() int { return 0 }

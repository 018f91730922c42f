package trace

import "demandrace/internal/detector"

// LiveReplay advances detector shadow state incrementally as events arrive,
// without knowing the trace's final dimensions up front. The detector is
// fixed-size, so when an event references a thread or sync object beyond
// the current dimensions the replay rebuilds: a fresh detector at the
// grown dimensions re-applies every retained event through the same
// ApplyEvent the batch path uses. Dimensions only ever grow, so after the
// last event the final rebuild has replayed the full prefix at the final
// dimensions and every later event applied incrementally — exactly the
// sequence Replay performs — which makes the final reports AND stats
// identical to the batch path on the same events.
//
// Rebuild cost is bounded by the number of dimension increases (at most
// threads+mutexes+sems, and in practice a handful at the front of a trace
// where threads first appear), not by chunk count.
type LiveReplay struct {
	opt    detector.Options
	det    *detector.Detector
	events []Event

	dims     dims
	rebuilds int
}

// NewLiveReplay starts an empty live replay with the given detector options.
func NewLiveReplay(opt detector.Options) *LiveReplay {
	return &LiveReplay{opt: opt}
}

// Apply feeds one event. Events must arrive in trace order.
func (l *LiveReplay) Apply(e Event) {
	grew := l.dims.cover(e)
	l.events = append(l.events, e)
	if l.det == nil || grew {
		l.det = detector.New(l.dims.threads, l.dims.mutexes, l.dims.sems, l.opt)
		l.rebuilds++
		for _, ev := range l.events {
			ApplyEvent(l.det, ev)
		}
		return
	}
	ApplyEvent(l.det, e)
}

// Detector returns the current detector. With no events applied yet it
// returns an empty zero-dimension detector — the same thing Replay builds
// for an empty trace.
func (l *LiveReplay) Detector() *detector.Detector {
	if l.det == nil {
		l.det = detector.New(0, 0, 0, l.opt)
	}
	return l.det
}

// Races returns the reports found so far. The slice grows monotonically
// between calls (rebuilds re-derive the same prefix reports in order).
func (l *LiveReplay) Races() []detector.Report {
	if l.det == nil {
		return nil
	}
	return l.det.Reports()
}

// Events returns the retained event sequence (not a copy).
func (l *LiveReplay) Events() []Event { return l.events }

// Dims returns the dimensions inferred so far.
func (l *LiveReplay) Dims() (threads, mutexes, sems int) {
	return l.dims.threads, l.dims.mutexes, l.dims.sems
}

// Rebuilds returns how many times the detector was rebuilt for dimension
// growth (observability: a pathological trace interleaving new threads
// late would show up here).
func (l *LiveReplay) Rebuilds() int { return l.rebuilds }

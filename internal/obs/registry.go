package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// unusable; obtain one from a Registry. A nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value integer metric. Because last-writer-wins
// is order-dependent, gauges are for single-writer (per-run or CLI-level)
// use only; the runner publishes counters and histograms exclusively so a
// registry shared across parallel workers stays deterministic. A nil
// *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value. Nil-safe.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution metric. Observations and the
// running sum are held as integers (the sum in millionths), so concurrent
// observation from the parallel engine's workers commutes and exports are
// byte-deterministic — the reason this histogram deliberately stores no
// floats. A nil *Histogram is a valid no-op.
type Histogram struct {
	// bounds are inclusive upper bucket bounds, ascending; an implicit
	// +Inf bucket follows.
	bounds []float64
	// counts has len(bounds)+1 entries; counts[i] tallies observations in
	// (bounds[i-1], bounds[i]], the final entry tallies the +Inf bucket.
	counts []atomic.Uint64
	count  atomic.Uint64
	// sumMicro accumulates observations in integer millionths.
	sumMicro atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. Negative samples clamp to zero. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMicro.Add(uint64(v * 1e6))
}

// Count returns the number of observations. Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation total (rounded to millionths). Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumMicro.Load()) / 1e6
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the containing bucket — the
// same estimator Prometheus's histogram_quantile uses. The first bucket
// interpolates from zero; a rank landing in the +Inf bucket clamps to the
// highest finite bound. Returns 0 when the histogram is empty. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, b := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (b-lo)*frac
		}
		cum += n
	}
	// Rank fell into the +Inf bucket: the best bounded answer is the top
	// finite bound (or the sum/count mean when there are no finite bounds).
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return h.Sum() / float64(total)
}

// Bounds returns the bucket upper bounds. Nil-safe.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCount returns the tally of bucket i (the final index is the +Inf
// bucket). Nil-safe.
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.counts[i].Load()
}

// Registry is a named collection of metrics. A name is either a bare
// family or one labelled series of a family, built by Series; everything
// but WriteProm treats it as an opaque key. Handle lookup (Counter,
// Gauge, Histogram) is get-or-create and mutex-guarded; the returned
// handles update lock-free, cheap enough to leave on in the hot pipeline.
// A nil *Registry is a valid no-op that hands out nil handles, so
// instrumented code never branches on "is telemetry enabled".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe
// (returns a nil handle).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls may pass nil bounds). Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Merge folds o into r: counters and histogram buckets add, gauges take
// o's value. Call it from a single goroutine, in a deterministic order
// (e.g. submission order of a batch), to keep merged output deterministic.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, c := range o.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range o.gauges {
		r.Gauge(name).Set(g.Value())
	}
	for name, h := range o.hists {
		dst := r.Histogram(name, h.bounds)
		for i := range h.counts {
			dst.counts[i].Add(h.counts[i].Load())
		}
		dst.count.Add(h.count.Load())
		dst.sumMicro.Add(h.sumMicro.Load())
	}
}

// HistogramSnapshot condenses one histogram into the numbers a
// time-series sampler keeps per tick: the running count/sum and the
// bucket-interpolated quantiles an operator plots.
type HistogramSnapshot struct {
	Count         uint64
	Sum           float64
	P50, P90, P99 float64
}

// Snapshot is a point-in-time copy of every metric in a registry, the
// input one internal/obs/tsdb tick works from.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry's current values. The copy is not an
// atomic cut across metrics — counters keep moving while it is taken —
// which is fine for its consumer: trend sampling, not invariant checking.
// Nil-safe (returns empty maps).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
	}
	return s
}

// CounterValue returns the named counter's value without creating it.
// Nil-safe.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name].Value()
}

// Series names one series of a labelled metric family:
// family{label="value"}, with the value escaped as the Prometheus text
// format requires (backslash, double quote, newline). It is the one place
// a tenant, backend, route or cost-component string enters a metric name,
// so distinct values always get distinct series. The registry stays keyed
// by the full string; only WriteProm splits it back into family and
// labels.
func Series(family, label, value string) string {
	return family + "{" + label + `="` + labelEscaper.Replace(value) + `"}`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// splitSeries returns a series name's family and its label list without
// braces ("" when unlabelled). Family names never contain '{', so the
// first one opens the label list.
func splitSeries(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// formatBound renders a histogram bound the same way every time ("g"
// shortest form), keeping exposition byte-stable.
func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// WriteProm writes the registry in Prometheus text exposition format,
// sorted by family and then by series so output is byte-deterministic,
// with one # TYPE line per family. A labelled histogram series writes
// family_bucket{label="v",le="…"}, family_sum{label="v"} and
// family_count{label="v"}. Values are integers (or fixed-precision sums),
// never wall-clock derived unless the caller put wall-clock values in —
// the runner never does. Nil-safe.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	type series struct{ name, family, labels, kind string }
	all := make([]series, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	add := func(name, kind string) {
		fam, labels := splitSeries(name)
		all = append(all, series{name, fam, labels, kind})
	}
	for name := range r.counters {
		add(name, "counter")
	}
	for name := range r.gauges {
		add(name, "gauge")
	}
	for name := range r.hists {
		add(name, "histogram")
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		return all[i].name < all[j].name
	})

	bw := bufio.NewWriter(w)
	for i, s := range all {
		if i == 0 || s.family != all[i-1].family {
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.family, s.kind)
		}
		switch s.kind {
		case "counter":
			fmt.Fprintf(bw, "%s %d\n", s.name, r.counters[s.name].Value())
		case "gauge":
			fmt.Fprintf(bw, "%s %d\n", s.name, r.gauges[s.name].Value())
		case "histogram":
			h := r.hists[s.name]
			// le joins the series' own labels: {le=…} or {label="v",le=…}.
			bucket, labels := "{", ""
			if s.labels != "" {
				bucket, labels = "{"+s.labels+",", "{"+s.labels+"}"
			}
			cum := uint64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatBound(h.bounds[i])
				}
				fmt.Fprintf(bw, "%s_bucket%sle=%q} %d\n", s.family, bucket, le, cum)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n%s_count%s %d\n", s.family, labels,
				strconv.FormatFloat(h.Sum(), 'f', 6, 64), s.family, labels, h.count.Load())
		}
	}
	return bw.Flush()
}

package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// recorder collects the outcome of every operation of one pass: latency
// samples per class, the work each successful operation completed, and
// the failures. Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // milliseconds, per class
	items     map[itemKey][]float64
	work      float64
	attempted int
	failed    int
	errs      []string
}

// itemKey names one kind of operation within a class: a kernel and
// policy, a hot request, a trace. Operations of one item do the same work.
type itemKey struct{ class, item string }

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]float64), items: make(map[itemKey][]float64)}
}

// maxErrs bounds how many distinct failure messages a pass keeps.
const maxErrs = 8

// add records one operation of item in class. A failed operation
// contributes no latency sample and no work.
func (r *recorder) add(class, item string, d time.Duration, work float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	r.lat[class] = append(r.lat[class], ms(d))
	k := itemKey{class, item}
	r.items[k] = append(r.items[k], ms(d))
	r.work += work
}

// samples returns a sorted copy of the given classes' latencies.
func (r *recorder) samples(classes ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, c := range classes {
		out = append(out, r.lat[c]...)
	}
	sort.Float64s(out)
	return out
}

// latencyStat is how a class's latency samples become one figure.
type latencyStat int

const (
	// itemP25 is the geometric mean, over the class's items, of each
	// item's first quartile. Items of one class differ in cost by orders
	// of magnitude, so a quantile over the whole class jumps when the
	// items near its rank trade places; a per-item figure does not. The
	// first quartile is the part of an item's samples that interference
	// from outside the program (a shared host) moves least.
	itemP25 latencyStat = iota
	// classP75 is the 75th percentile of all the class's samples, for a
	// class whose latency has two modes: a service job that finishes
	// before the client's first status check, and one that waits out a
	// poll interval. Which mode a job lands in depends on scheduling, so
	// per-item quantiles flip between the modes; the class's p75 stays in
	// the upper mode and moves with it.
	classP75
)

func (s latencyStat) String() string {
	if s == classP75 {
		return "p75 of all samples"
	}
	return "geometric mean of per-item p25"
}

// latency is class c's gated latency figure, named name.
func (r *recorder) latency(name string, c latencyClass) metric {
	m := metric{Name: name, Unit: "ms"}
	r.mu.Lock()
	defer r.mu.Unlock()
	n, items, logSum := len(r.lat[c.name]), 0, 0.0
	if c.stat == classP75 {
		s := append([]float64(nil), r.lat[c.name]...)
		sort.Float64s(s)
		m.Value = quantile(s, 0.75)
	} else {
		for k, xs := range r.items {
			if k.class != c.name {
				continue
			}
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			logSum += math.Log(quantile(s, 0.25))
			items++
		}
		m.Value = math.NaN()
		if items > 0 {
			m.Value = math.Exp(logSum / float64(items))
		}
	}
	m.Note = fmt.Sprintf("%s: %s, n=%d", c.name, c.stat, n)
	if items > 0 {
		m.Note += fmt.Sprintf(", %d items", items)
	}
	return m
}

func (r *recorder) failShare() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// quantile is the nearest-rank q-quantile of sorted values (NaN when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the least that makes a tail percentile worth
// reporting.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, answering 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memSampler samples the memory the Go runtime holds from the operating
// system (mapped minus released) while the measured phase runs. A high
// percentile of the samples is steadier than the single peak.
type memSampler struct {
	done    chan struct{}
	stopped chan struct{}
	mb      []float64
}

const memSampleEvery = 20 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{done: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(m.stopped)
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			held := samples[0].Value.Uint64() - samples[1].Value.Uint64()
			m.mb = append(m.mb, float64(held)/(1<<20))
			select {
			case <-tick.C:
			case <-m.done:
				return
			}
		}
	}()
	return m
}

// stop ends sampling and waits for the sampler to exit.
func (m *memSampler) stop() {
	close(m.done)
	<-m.stopped
}

func (m *memSampler) n() int { return len(m.mb) }

func (m *memSampler) p95() float64 {
	s := append([]float64(nil), m.mb...)
	sort.Float64s(s)
	return quantile(s, 0.95)
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.SetClock(func() uint64 { return 1 })
	tr.SetLimit(10)
	tr.Emit(KindHITM, 0, 0, 0, 0, "")
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.CountByKind() != nil {
		t.Error("nil tracer is not a no-op")
	}

	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(3)
	reg.Histogram("z", []float64{1}).Observe(2)
	if reg.CounterValue("x") != 0 {
		t.Error("nil registry is not a no-op")
	}
	if err := reg.WriteProm(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	reg.Merge(NewRegistry())
}

func TestTracerStampsWithClock(t *testing.T) {
	tr := NewTracer()
	now := uint64(0)
	tr.SetClock(func() uint64 { return now })
	tr.Emit(KindHITM, -1, 2, 64, 1, "")
	now = 100
	tr.Emit(KindModeEnable, 0, 2, 0, 0, "")
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].TS != 0 || evs[1].TS != 100 {
		t.Errorf("timestamps = %d, %d", evs[0].TS, evs[1].TS)
	}
	if evs[0].Ctx != 2 || evs[0].TID != -1 || evs[0].Line != 64 {
		t.Errorf("event fields: %+v", evs[0])
	}
	if got := tr.CountByKind()[KindHITM]; got != 1 {
		t.Errorf("CountByKind[hitm] = %d", got)
	}
}

func TestTracerLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(2)
	for i := 0; i < 5; i++ {
		tr.Emit(KindOverflow, -1, 0, 0, 0, "")
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Errorf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindHITM; k <= KindRace; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestThreadSpans(t *testing.T) {
	events := []Event{
		{TS: 10, Kind: KindModeEnable, TID: 0},
		{TS: 30, Kind: KindModeDecay, TID: 0},
		{TS: 20, Kind: KindModeEnable, TID: 1},
		// Redundant enable must not split the span.
		{TS: 25, Kind: KindModeEnable, TID: 1},
		// Thread-unscoped events are ignored.
		{TS: 5, Kind: KindHITM, TID: -1},
	}
	spans := ThreadSpans(events, 40, 2, false)
	want := []Span{
		{TID: 0, Start: 0, End: 10, Analyzing: false},
		{TID: 0, Start: 10, End: 30, Analyzing: true},
		{TID: 0, Start: 30, End: 40, Analyzing: false},
		{TID: 1, Start: 0, End: 20, Analyzing: false},
		{TID: 1, Start: 20, End: 40, Analyzing: true},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans: %+v", len(spans), spans)
	}
	for i, s := range spans {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestThreadSpansContinuousStart(t *testing.T) {
	// Under continuous analysis there are no transitions: each thread is one
	// full-length analysis span.
	spans := ThreadSpans(nil, 100, 2, true)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	for _, s := range spans {
		if !s.Analyzing || s.Start != 0 || s.End != 100 {
			t.Errorf("span %+v", s)
		}
	}
}

func TestThreadSpansElidesZeroLength(t *testing.T) {
	events := []Event{
		{TS: 0, Kind: KindModeEnable, TID: 0},  // at t=0: no fast prefix
		{TS: 50, Kind: KindModeDecay, TID: 0},  // back to fast
		{TS: 50, Kind: KindModeEnable, TID: 0}, // re-enable at same cycle
	}
	spans := ThreadSpans(events, 50, 1, false)
	// [0,50) analysis only: the trailing span would be zero-length.
	if len(spans) != 1 || !spans[0].Analyzing || spans[0].Dur() != 50 {
		t.Errorf("spans = %+v", spans)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	reg.Counter("c").Inc()
	if got := reg.CounterValue("c"); got != 4 {
		t.Errorf("counter = %d", got)
	}
	if got := reg.CounterValue("absent"); got != 0 {
		t.Errorf("absent counter = %d", got)
	}
	reg.Gauge("g").Set(-7)
	if got := reg.Gauge("g").Value(); got != -7 {
		t.Errorf("gauge = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1.0, 5, 100, -3} {
		h.Observe(v)
	}
	// -3 clamps to 0. Buckets: (..,1]=3  (1,10]=1  +Inf=1.
	if got := h.BucketCount(0); got != 3 {
		t.Errorf("bucket 0 = %d", got)
	}
	if got := h.BucketCount(1); got != 1 {
		t.Errorf("bucket 1 = %d", got)
	}
	if got := h.BucketCount(2); got != 1 {
		t.Errorf("+Inf bucket = %d", got)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestRegistryConcurrentDeterminism(t *testing.T) {
	// The property the -batch path leans on: concurrent counter/histogram
	// updates from many goroutines must still render identical expositions.
	render := func() string {
		reg := NewRegistry()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 1000; j++ {
					reg.Counter("ops_total").Inc()
					reg.Histogram("lat", []float64{1, 2, 5}).Observe(float64(i%3) + 0.5)
				}
			}(i)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("concurrent expositions differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "ops_total 8000") {
		t.Errorf("missing total:\n%s", a)
	}
}

func TestWritePromFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Add(2)
	reg.Gauge("a_gauge").Set(5)
	h := reg.Histogram("c_hist", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# TYPE a_gauge gauge
a_gauge 5
# TYPE b_total counter
b_total 2
# TYPE c_hist histogram
c_hist_bucket{le="0.5"} 1
c_hist_bucket{le="2"} 2
c_hist_bucket{le="+Inf"} 2
c_hist_sum 1.250000
c_hist_count 2
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePromFamilies: labelled series group under one # TYPE line per
// family, sorted by family then series; label values are escaped; and a
// labelled histogram puts le after the family label.
func TestWritePromFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_jobs_total_extra").Add(4)
	reg.Counter(Series("t_jobs_total", "tenant", "we\"ird\\name\nx")).Add(3)
	reg.Counter(Series("t_jobs_total", "tenant", "b")).Add(2)
	reg.Counter(Series("t_jobs_total", "tenant", "a")).Add(1)
	h := reg.Histogram(Series("lat_ms", "route", "post_jobs"), []float64{1})
	h.Observe(0.5)
	h.Observe(3)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE lat_ms histogram
lat_ms_bucket{route="post_jobs",le="1"} 1
lat_ms_bucket{route="post_jobs",le="+Inf"} 2
lat_ms_sum{route="post_jobs"} 3.500000
lat_ms_count{route="post_jobs"} 2
# TYPE t_jobs_total counter
t_jobs_total{tenant="a"} 1
t_jobs_total{tenant="b"} 2
t_jobs_total{tenant="we\"ird\\name\nx"} 3
# TYPE t_jobs_total_extra counter
t_jobs_total_extra 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(1)
	b.Counter("c").Add(2)
	b.Gauge("g").Set(9)
	b.Histogram("h", []float64{1}).Observe(0.5)
	a.Merge(b)
	if got := a.CounterValue("c"); got != 3 {
		t.Errorf("merged counter = %d", got)
	}
	if got := a.Gauge("g").Value(); got != 9 {
		t.Errorf("merged gauge = %d", got)
	}
	if got := a.Histogram("h", nil).Count(); got != 1 {
		t.Errorf("merged histogram count = %d", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{TS: 5, Kind: KindHITM, TID: -1, Ctx: 1, Line: 128},
		{TS: 7, Kind: KindRace, TID: 1, Ctx: -1, Detail: "write-write"},
	}
	spans := []Span{
		{TID: 0, Start: 0, End: 10, Analyzing: false},
		{TID: 0, Start: 10, End: 20, Analyzing: true},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "prog", events, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Cat   string            `json:"cat"`
			Ph    string            `json:"ph"`
			TS    uint64            `json:"ts"`
			Dur   uint64            `json:"dur"`
			PID   int               `json:"pid"`
			TID   int               `json:"tid"`
			Scope string            `json:"s"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.OtherData["program"] != "prog" || doc.OtherData["clock"] != "simulated-cycles" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events", len(doc.TraceEvents))
	}
	if e := doc.TraceEvents[0]; e.Name != "fast" || e.Ph != "X" || e.Dur != 10 {
		t.Errorf("fast span = %+v", e)
	}
	if e := doc.TraceEvents[1]; e.Name != "analysis" || e.TS != 10 {
		t.Errorf("analysis span = %+v", e)
	}
	// HITM has no TID; it renders on its hardware context's row.
	if e := doc.TraceEvents[2]; e.Name != "hitm" || e.Ph != "i" || e.TID != 1 {
		t.Errorf("hitm instant = %+v", e)
	}
	if e := doc.TraceEvents[3]; e.Args["detail"] != "write-write" {
		t.Errorf("race instant = %+v", e)
	}
}

func TestWriteNDJSON(t *testing.T) {
	events := []Event{
		{TS: 1, Kind: KindHITM, TID: -1, Ctx: 2, Line: 64, Aux: 3},
		{TS: 9, Kind: KindModeEnable, TID: 0, Ctx: 1},
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "hitm" || first["ctx"] != float64(2) {
		t.Errorf("first = %v", first)
	}
	if _, ok := first["tid"]; ok {
		t.Error("tid sentinel (-1) must be omitted")
	}
	var second map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["tid"] != float64(0) {
		t.Errorf("second = %v", second)
	}
}

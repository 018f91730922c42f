// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload as a closed loop for a fixed
// time and prints every end-to-end metric by name and unit; the last line
// of standard output is a JSON summary. With -trace 1 it instead runs the
// workload once with per-layer timing, prints a self-time table, writes a
// spans file, and reports the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sim-small --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each metric is expected to show.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// opTimeout bounds every single operation, so a hung layer ends the run
// with failures instead of hanging the benchmark.
const opTimeout = 20 * time.Second

// Each run sets its workload up before and after the measured phase, at
// least setupMinCount times and for at least setupMinTime on each side;
// setup_s is the median of all of them, so a short set-up is sampled
// often and set-up is sampled across the whole run.
const (
	setupMinCount = 4
	setupMinTime  = 1500 * time.Millisecond
	setupMaxCount = 64
)

// options is what every workload's set-up receives.
type options struct {
	seed    int64
	workers int    // load-generation width for the simulator workloads
	clients int    // concurrent clients for the service workloads
	dir     string // scratch directory inside the checkout
	// tr, in a traced run, is the tracer set-up wires into the servers
	// and clients it creates; it stays off until the traced pass starts.
	tr *tracer
}

// instance is one set-up workload, ready to be driven.
type instance interface {
	// digest identifies the generated inputs: the same seed gives the same
	// digest.
	digest() string
	// run drives the closed loop until the deadline passes.
	run(ctx context.Context, until time.Time, rec *recorder)
	// runTraced drives the loop with per-layer timing into tr.
	runTraced(ctx context.Context, until time.Time, rec *recorder, tr *tracer)
	// table names this workload's end-to-end results the way its users
	// read them.
	table(rec *recorder, elapsed time.Duration) []metric
	// close releases everything set-up created.
	close()
}

// workload is a named generator of instances.
type workload struct {
	name string
	// classes are the two latency classes reported as class_a_ms and
	// class_b_ms.
	classes [2]latencyClass
	setup   func(o options) (instance, error)
}

// latencyClass names one class of operations and how its latency samples
// become the one figure that is gated.
type latencyClass struct {
	name string
	stat latencyStat
}

var (
	demandRuns     = latencyClass{"hitm-demand", itemP25}
	continuousRuns = latencyClass{"continuous", itemP25}
)

var workloadList = []workload{
	{"sim-small", [2]latencyClass{demandRuns, continuousRuns}, setupSimSmall},
	{"sim-large", [2]latencyClass{demandRuns, continuousRuns}, setupSimLarge},
	{"service-jobs", [2]latencyClass{{"miss", classP75}, {"hit", itemP25}}, setupServiceJobs},
	{"trace-upload", [2]latencyClass{{"batch", itemP25}, {"stream", itemP25}}, setupTraceUpload},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named, united value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"-"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-small, service-jobs, trace-upload or sim-large")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	traced := fs.Int("trace", 0, "1 runs the traced (per-layer) pass instead of the end-to-end one")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and the spans file")
	rev := fs.String("rev", "unknown", "source revision to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// One service client: with two, a hit often ran beside the other
	// client's miss simulation on a 2-vCPU host, and hit latency measured
	// that contention more than the read path.
	o := options{seed: *seed, workers: runtime.NumCPU(), clients: 1, dir: *dir}
	var (
		sum summary
		err error
	)
	if *traced == 1 {
		sum, err = runTracedWorkload(w, o, *seconds, *rev, stdout)
	} else {
		sum, err = runWorkload(w, o, *seconds, *rev, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed")
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

// setups sets the workload up at least n times and for at least minTime
// (at most setupMaxCount times), closing all but the last instance, which
// it returns with the set-up times.
func setups(w workload, o options, n int, minTime time.Duration) (instance, []float64, error) {
	var (
		times []float64
		inst  instance
		spent time.Duration
	)
	for i := 0; i < setupMaxCount && (i < n || spent < minTime); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // start each set-up from the same heap state
		start := time.Now()
		var err error
		inst, err = w.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
	}
	return inst, times, nil
}

func printHeader(out io.Writer, w workload, o options, rev, digest string, traced bool) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%v\n", w.name, o.seed, traced)
	fmt.Fprintf(out, "env nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
	fmt.Fprintf(out, "inputs digest=%s\n", digest)
}

// runWorkload is the end-to-end (untraced) run.
func runWorkload(w workload, o options, seconds float64, rev string, out io.Writer) (summary, error) {
	inst, times, err := setups(w, o, setupMinCount, setupMinTime)
	if err != nil {
		return summary{}, err
	}
	printHeader(out, w, o, rev, inst.digest(), false)

	rec := newRecorder()
	mem := startMemSampler()
	start := time.Now()
	inst.run(context.Background(), start.Add(time.Duration(seconds*float64(time.Second))), rec)
	elapsed := time.Since(start)
	mem.stop()
	inst.close()
	last, after, err := setups(w, o, setupMinCount, setupMinTime)
	if err != nil {
		return summary{}, err
	}
	last.close()
	setupS := median(append(times, after...))

	gated := []metric{
		{Name: "setup_s", Value: setupS, Unit: "s", Note: fmt.Sprintf("median of %d set-ups", len(times)+len(after))},
		rec.latency("class_a_ms", w.classes[0]),
		rec.latency("class_b_ms", w.classes[1]),
	}
	all := rec.samples(w.classes[0].name, w.classes[1].name)
	fmt.Fprintf(out, "\nend-to-end (%s, %.2fs measured, %d ops, fail_share=%.4f)\n",
		w.name, elapsed.Seconds(), rec.attempted, rec.failShare())
	named := append(inst.table(rec, elapsed),
		metric{Name: "fail_share", Value: rec.failShare(), Unit: "share"},
		metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB"},
		metric{Name: "mem_mb_p95", Value: mem.p95(), Unit: "MB", Note: fmt.Sprintf("%d samples", mem.n())},
		metric{Name: "tail_ms_p90", Value: quantile(all, 0.9), Unit: "ms", Note: fmt.Sprintf("all ops, n=%d", len(all))},
		metric{Name: "setup_s", Value: setupS, Unit: "s"})
	printMetrics(out, "  ", named)
	fmt.Fprintf(out, "gated (BENCHMARK.json end_to_end)\n")
	printMetrics(out, "  ", gated)
	printErrors(out, rec)

	sum := summary{
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   make(map[string]metric),
	}
	sum.Correct = rec.failed == 0 && rec.attempted > 0
	for _, m := range gated {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			sum.Correct = false
			return sum, fmt.Errorf("metric %s has no value (no samples)", m.Name)
		}
		sum.Metrics[m.Name] = m
	}
	return sum, nil
}

func printMetrics(out io.Writer, indent string, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(out, "%s%-34s %14.4f %-8s%s\n", indent, m.Name, m.Value, m.Unit, note)
	}
}

func printErrors(out io.Writer, rec *recorder) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, e := range rec.errs {
		fmt.Fprintf(out, "  FAILED %s\n", e)
	}
}

// peakRSSMB is this process's peak resident set size. Each invocation
// runs a single workload, so it is that workload's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sideWorkloads are the workloads whose traced pass runs, briefly, after
// the main one's, so that every per-layer metric is measured in each
// traced run. sim-small exercises every simulator layer sim-large does.
func sideWorkloads(main string) []string {
	var out []string
	for _, n := range []string{"sim-small", "service-jobs", "trace-upload"} {
		if n == main || (n == "sim-small" && main == "sim-large") {
			continue
		}
		out = append(out, n)
	}
	return out
}

// sideSeconds is the traced time each side workload gets.
const sideSeconds = 2.0

// runTracedWorkload is the traced run: the named workload for the full
// time, then each side workload briefly. Each layer metric comes from the
// named workload when it exercises that layer, else from the first side
// workload that does.
func runTracedWorkload(w workload, o options, seconds float64, rev string, out io.Writer) (summary, error) {
	sum := summary{Correct: true, Metrics: make(map[string]metric)}
	layers := make(map[string]layerValue)
	var allSpans []span

	pass := func(w workload, secs float64, repeats bool) error {
		tr := newTracer()
		o := o
		o.tr = tr
		n, minTime := 1, time.Duration(0)
		if repeats {
			n, minTime = setupMinCount, setupMinTime
		}
		inst, times, err := setups(w, o, n, minTime)
		if err != nil {
			return err
		}
		setupS := median(times)
		defer inst.close()
		printHeader(out, w, o, rev, inst.digest(), true)
		fmt.Fprintf(out, "setup_s=%.4f\n", setupS)
		rec := newRecorder()
		start := time.Now()
		inst.runTraced(context.Background(), start.Add(time.Duration(secs*float64(time.Second))), rec, tr)
		elapsed := time.Since(start)
		fmt.Fprintf(out, "\ntraced pass (%s, %.2fs, %d ops, fail_share=%.4f)\n",
			w.name, elapsed.Seconds(), rec.attempted, rec.failShare())
		printSelfTable(out, tr.selfTable())
		printErrors(out, rec)
		sum.Attempted += rec.attempted
		sum.Failed += rec.failed
		for name, v := range tr.values() {
			if _, ok := layers[name]; !ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				layers[name] = layerValue{v, w.name}
			}
		}
		allSpans = append(allSpans, tr.snapshot()...)
		return nil
	}
	if err := pass(w, seconds, true); err != nil {
		return sum, err
	}
	for _, n := range sideWorkloads(w.name) {
		sw, _ := findWorkload(n)
		if err := pass(sw, sideSeconds, false); err != nil {
			return sum, err
		}
	}

	path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	n, err := writeSpans(path, w.name, allSpans)
	if err != nil {
		return sum, err
	}
	fmt.Fprintf(out, "\nspans file %s: %d spans, parses\n", path, n)

	fmt.Fprintf(out, "\nper-layer metrics (from %s unless marked)\n", w.name)
	var missing []string
	for _, d := range layerMetrics {
		v, ok := layers[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		m := metric{Name: d.name, Value: v.value, Unit: d.unit}
		if v.from != w.name {
			m.Note = "from " + v.from
		}
		printMetrics(out, "  ", []metric{m})
		m.Note = ""
		sum.Metrics[d.name] = m
	}
	for _, d := range droppedLayerMetrics {
		fmt.Fprintf(out, "  dropped %s: %s\n", d.name, d.reason)
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		sum.Correct = false
		return sum, fmt.Errorf("per-layer metrics not measured: %v", missing)
	}
	if sum.Attempted == 0 {
		return sum, errors.New("traced run attempted no operations")
	}
	sum.Correct = sum.Failed == 0
	return sum, nil
}

type layerValue struct {
	value float64
	from  string
}

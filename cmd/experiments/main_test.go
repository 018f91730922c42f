package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demandrace/internal/parallel"
)

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "experiments version ") {
		t.Errorf("-version output = %q", buf.String())
	}
}

func TestSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig2"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig.2") || !strings.Contains(out, "swaptions") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-csv"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") || strings.Contains(first, "==") {
		t.Errorf("not CSV: %q", first)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &buf, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestThreadsAndScaleFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-threads", "2", "-scale", "1"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
}

// TestWorkersByteIdentical is the CLI-level determinism check: the tables a
// parallel run renders must match the serial run byte for byte.
func TestWorkersByteIdentical(t *testing.T) {
	var serial, wide bytes.Buffer
	if err := run([]string{"-exp", "fig4", "-workers", "1"}, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig4", "-workers", "8"}, &wide, io.Discard); err != nil {
		t.Fatal(err)
	}
	if serial.String() != wide.String() {
		t.Errorf("-workers 8 output differs from -workers 1:\n--- serial ---\n%s\n--- workers=8 ---\n%s",
			serial.String(), wide.String())
	}
}

// TestQuickSmokeMode runs the full -quick suite: every experiment's code
// path in a few seconds.
func TestQuickSmokeMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Scorecard", "Tab.1", "Fig.1", "Fig.4", "Tab.3", "Fig.7", "Tab.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("quick output missing %s", want)
		}
	}
}

// TestTimingGoesToDiag checks the timing summary lands on the diagnostic
// stream, never the comparable table stream.
func TestTimingGoesToDiag(t *testing.T) {
	var out, diag bytes.Buffer
	if err := run([]string{"-exp", "fig2"}, &out, &diag); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Harness timing") {
		t.Error("timing summary leaked into table stream")
	}
	d := diag.String()
	if !strings.Contains(d, "Harness timing") || !strings.Contains(d, "TOTAL") {
		t.Errorf("diag stream missing timing summary:\n%s", d)
	}
	var silent bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-timing=false"}, io.Discard, &silent); err != nil {
		t.Fatal(err)
	}
	if silent.Len() != 0 {
		t.Errorf("-timing=false still wrote diagnostics:\n%s", silent.String())
	}
}

// TestBenchJSON checks the bench-regression snapshot: valid JSON, one entry
// per experiment, plausible totals.
func TestBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, diag bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-bench-json", path}, &out, &diag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diag.String(), "bench snapshot written") {
		t.Errorf("missing confirmation on diag:\n%s", diag.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bench file is not valid JSON: %v", err)
	}
	if doc.Schema != 1 {
		t.Errorf("schema = %d", doc.Schema)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].Name != "fig2" {
		t.Errorf("experiments = %+v", doc.Experiments)
	}
	if doc.Experiments[0].Runs == 0 || doc.Experiments[0].WallNS <= 0 {
		t.Errorf("fig2 entry has no runs or wall time: %+v", doc.Experiments[0])
	}
	if doc.Total.Runs != doc.Experiments[0].Runs {
		t.Errorf("total runs %d != fig2 runs %d", doc.Total.Runs, doc.Experiments[0].Runs)
	}
}

// TestMetricsGoesToDiag checks -metrics renders the engine counters as a
// Prometheus exposition on the diagnostic stream only.
func TestMetricsGoesToDiag(t *testing.T) {
	var out, diag bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-metrics"}, &out, &diag); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ddrace_parallel_") {
		t.Error("engine counters leaked into table stream")
	}
	d := diag.String()
	for _, want := range []string{
		"ddrace_parallel_fig2_jobs_total",
		"ddrace_parallel_suite_jobs_total",
		"# TYPE ddrace_parallel_fig2_wall_ns_total counter",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("diag exposition missing %q:\n%s", want, d)
		}
	}
}

// benchTestDoc builds a comparable two-experiment snapshot for check tests.
func benchTestDoc(rates map[string]float64) benchDoc {
	doc := benchDoc{Schema: 1, Workers: 1, Threads: 4, Scale: 1, Quick: true}
	for _, name := range []string{"fig2", "fig4"} {
		doc.Experiments = append(doc.Experiments, benchEntry{
			Name: name, Runs: 10, RunsPerSec: rates[name],
		})
	}
	doc.Total = benchEntry{Name: "total", Runs: 20, RunsPerSec: rates["total"]}
	return doc
}

func writeBaseline(t *testing.T, doc benchDoc) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBenchJSON(path, doc); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckBenchWithinTolerancePasses(t *testing.T) {
	base := benchTestDoc(map[string]float64{"fig2": 100, "fig4": 50, "total": 75})
	cur := benchTestDoc(map[string]float64{"fig2": 110, "fig4": 45, "total": 70})
	var diag bytes.Buffer
	if err := checkBench(&diag, writeBaseline(t, base), cur, 0.30); err != nil {
		t.Fatalf("within-band check failed: %v", err)
	}
	d := diag.String()
	for _, want := range []string{"bench check", "fig2", "fig4", "total", "ok"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff table missing %q:\n%s", want, d)
		}
	}
}

func TestCheckBenchRegressionFails(t *testing.T) {
	base := benchTestDoc(map[string]float64{"fig2": 100, "fig4": 50, "total": 75})
	cur := benchTestDoc(map[string]float64{"fig2": 40, "fig4": 50, "total": 60})
	var diag bytes.Buffer
	err := checkBench(&diag, writeBaseline(t, base), cur, 0.30)
	if err == nil {
		t.Fatal("60% regression passed a ±30% gate")
	}
	if !strings.Contains(err.Error(), "fig2") || !strings.Contains(err.Error(), "outside") {
		t.Errorf("error not actionable: %v", err)
	}
	if !strings.Contains(diag.String(), "SLOW") {
		t.Errorf("diff table missing SLOW marker:\n%s", diag.String())
	}
}

func TestCheckBenchIncomparableMetadata(t *testing.T) {
	base := benchTestDoc(map[string]float64{"fig2": 100, "fig4": 50, "total": 75})
	cur := base
	cur.Workers = 8
	err := checkBench(io.Discard, writeBaseline(t, base), cur, 0.30)
	if err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("workers mismatch not rejected: %v", err)
	}
}

func TestCheckBenchNewAndMissingExperiments(t *testing.T) {
	base := benchTestDoc(map[string]float64{"fig2": 100, "fig4": 50, "total": 75})
	base.Experiments = base.Experiments[:1] // baseline predates fig4
	cur := benchTestDoc(map[string]float64{"fig2": 100, "fig4": 50, "total": 75})
	var diag bytes.Buffer
	if err := checkBench(&diag, writeBaseline(t, base), cur, 0.30); err != nil {
		t.Fatalf("new experiment should not fail the gate: %v", err)
	}
	if !strings.Contains(diag.String(), "new (not in baseline)") {
		t.Errorf("diff table missing new marker:\n%s", diag.String())
	}
	// A baseline row without a rate is skipped, not a division by zero.
	base2 := benchTestDoc(map[string]float64{"fig2": 0, "fig4": 50, "total": 75})
	if err := checkBench(io.Discard, writeBaseline(t, base2), cur, 0.30); err != nil {
		t.Fatalf("zero-rate baseline row should be skipped: %v", err)
	}
}

// TestBenchCheckEndToEnd runs the CLI to write a snapshot and then to
// check against it, with the snapshot source fixed at known throughputs:
// a run within the ±30% band passes, one outside it fails. The suite
// itself still runs; only its wall-clock numbers are replaced, so the
// gate's verdict cannot flip with host noise. The CI bench-regression job
// keeps the real wall-clock check.
func TestBenchCheckEndToEnd(t *testing.T) {
	var rate float64
	t.Cleanup(func() { benchSnapshot = buildBenchDoc })
	benchSnapshot = func(workers, threads, scale int, quick bool,
		rows []parallel.TimingRow, total parallel.Stats, wall time.Duration) benchDoc {
		doc := buildBenchDoc(workers, threads, scale, quick, rows, total, wall)
		for i := range doc.Experiments {
			doc.Experiments[i].RunsPerSec = rate
		}
		doc.Total.RunsPerSec = rate
		return doc
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	rate = 100
	if err := run([]string{"-exp", "fig2", "-bench-json", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	rate = 125
	var diag bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-bench-check", path}, io.Discard, &diag); err != nil {
		t.Fatalf("+25%% failed the ±30%% gate: %v\n%s", err, diag.String())
	}
	if !strings.Contains(diag.String(), "bench check vs") {
		t.Errorf("diag missing check table:\n%s", diag.String())
	}
	for _, r := range []float64{135, 65} {
		rate = r
		err := run([]string{"-exp", "fig2", "-bench-check", path}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "outside the ±30% band") {
			t.Errorf("%.0f runs/s against a 100 runs/s baseline: err = %v, want a band violation", r, err)
		}
	}
}

// TestLogLevelErrorSilencesDiagnostics is the stderr-routing contract: at
// -log-level=error the timing summary is suppressed entirely.
func TestLogLevelErrorSilencesDiagnostics(t *testing.T) {
	var diag bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-log-level", "error"}, io.Discard, &diag); err != nil {
		t.Fatal(err)
	}
	if diag.Len() != 0 {
		t.Errorf("-log-level=error still wrote %d diagnostic bytes:\n%s", diag.Len(), diag.String())
	}
}

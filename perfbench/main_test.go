package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demandrace/internal/service"
)

// TestDigestDeterministic checks that workload generation depends on the
// seed alone: the same seed gives the same run list, request list and
// trace set, and another seed gives another.
func TestDigestDeterministic(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) string {
				inst, err := w.setup(options{seed: seed, workers: 2, clients: 2, dir: t.TempDir()})
				if err != nil {
					t.Fatalf("set-up: %v", err)
				}
				defer inst.close()
				return inst.digest()
			}
			a, b, c := digest(1), digest(1), digest(2)
			if a != b {
				t.Errorf("seed 1 gave digests %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 both gave digest %s", a)
			}
		})
	}
}

// downJobs is a service-jobs instance whose single client points at url
// and which has no fleet of its own.
func downJobs(url string) *serviceJobs {
	f := &serviceJobs{o: options{seed: 1, clients: 1}, kernels: jobKernels(), next: []int{0}}
	cl, pool := newClient(url, nil)
	f.clients, f.pools = []*service.Client{cl}, []*http.Transport{pool}
	return f
}

// TestDeadlineBackendDown points a client at a backend that is down: the
// run must end on time with every operation counted as failed.
func TestDeadlineBackendDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close() // nothing listens there now

	f := downJobs(url)
	defer f.close()
	rec := newRecorder()
	start := time.Now()
	f.run(context.Background(), start.Add(300*time.Millisecond), rec)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("run against a down backend took %v", d)
	}
	if rec.attempted == 0 || rec.failed != rec.attempted {
		t.Errorf("attempted %d, failed %d; want every operation failed", rec.attempted, rec.failed)
	}
	if rec.failShare() != 1 {
		t.Errorf("fail_share = %v, want 1", rec.failShare())
	}
}

// TestDeadlineBackendHung points a client at a backend that accepts
// requests and never answers: the operation deadline ends the run.
func TestDeadlineBackendHung(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)

	f := downJobs(hung.URL)
	defer f.close()
	rec := newRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	f.run(ctx, start.Add(200*time.Millisecond), rec)
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("run against a hung backend took %v", d)
	}
	if rec.attempted == 0 || rec.failed != rec.attempted {
		t.Errorf("attempted %d, failed %d; want every operation failed", rec.attempted, rec.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.75, 8}, {0.9, 9}, {1, 10}, {0, 1}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if tailOK(999, 0.99) || !tailOK(1000, 0.99) {
		t.Error("tailOK: a p99 needs 1000 samples for 10 beyond it")
	}
}

// TestLatencyStats checks the two gated latency statistics: the
// geometric mean of per-item first quartiles, and the p75 over all of a
// class's samples.
func TestLatencyStats(t *testing.T) {
	rec := newRecorder()
	for i := 1; i <= 4; i++ {
		rec.add("a", "fast", time.Duration(i)*time.Millisecond, 1, nil)   // p25 1 ms
		rec.add("a", "slow", time.Duration(4*i)*time.Millisecond, 1, nil) // p25 4 ms
		rec.add("b", "x", time.Duration(10*i)*time.Millisecond, 1, nil)   // 10..40 ms
		rec.add("b", "y", time.Duration(100*i)*time.Millisecond, 1, nil)  // 100..400 ms
	}
	rec.add("a", "fast", time.Hour, 1, errors.New("failed")) // no sample
	if got := rec.latency("x", latencyClass{"a", itemP25}).Value; math.Abs(got-2) > 1e-9 {
		t.Errorf("itemP25 = %v, want 2 (geometric mean of 1 and 4)", got)
	}
	if got := rec.latency("x", latencyClass{"b", classP75}).Value; got != 200 {
		t.Errorf("classP75 = %v, want 200 (6th of 8 samples)", got)
	}
	if got := rec.latency("x", latencyClass{"none", itemP25}).Value; !math.IsNaN(got) {
		t.Errorf("empty class = %v, want NaN", got)
	}
}

// TestLedgerMatchesBenchmarkJSON keeps the traced run's metric list and
// the per_layer list of BENCHMARK.json in step.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the ledger %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if d := layerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, ledger has %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// TestTracedRunReportsEveryLayer runs a short traced run and checks that
// it reports every per-layer metric and writes a spans file that parses.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	w, _ := findWorkload("sim-large")
	var out bytes.Buffer
	sum, err := runTracedWorkload(w, options{seed: 3, workers: 2, clients: 2, dir: t.TempDir()}, 0.5, "test", &out)
	if err != nil {
		t.Fatalf("traced run: %v\n%s", err, out.String())
	}
	if !sum.Correct || sum.Failed != 0 {
		t.Fatalf("traced run failed %d of %d operations\n%s", sum.Failed, sum.Attempted, out.String())
	}
	for _, d := range layerMetrics {
		if _, ok := sum.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	if !strings.Contains(out.String(), "parses") {
		t.Errorf("no spans file reported:\n%s", out.String())
	}
}

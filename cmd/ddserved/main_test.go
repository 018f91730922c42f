package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	olog "demandrace/internal/obs/log"
	"demandrace/internal/service"
	"demandrace/internal/version"
)

// logBuffer collects daemon log output for inspection while goroutines
// still write to it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeSubmitShutdown boots the daemon on a random port, runs one job
// end to end over HTTP, checks the operational surfaces (structured logs,
// /v1/stats percentiles), and exercises the graceful-shutdown path.
func TestServeSubmitShutdown(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	var logs logBuffer
	lg := olog.New(olog.Options{Level: slog.LevelInfo, Format: olog.FormatJSON, Output: &logs})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr:     "127.0.0.1:0",
			addrFile: addrFile,
			drain:    30 * time.Second,
			cfg:      service.Config{Workers: 1, Log: lg},
		})
	}()

	var addr string
	for i := 0; i < 200; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("daemon never wrote -addr-file")
	}

	cl := &service.Client{BaseURL: "http://" + addr}
	data, st, err := cl.Run(context.Background(), service.Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != service.StateDone || len(data) == 0 {
		t.Fatalf("job ended %q with %d result bytes", st.State, len(data))
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}

	// /v1/stats must report real percentiles once a job has flowed through.
	sresp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var sum service.StatsSummary
	err = json.NewDecoder(sresp.Body).Decode(&sum)
	sresp.Body.Close()
	if err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if sum.Jobs.Completed != 1 || sum.Health != service.HealthOK {
		t.Fatalf("stats jobs/health = %+v / %q", sum.Jobs, sum.Health)
	}
	if len(sum.Endpoints) == 0 || sum.Endpoints[0].Route != "post_jobs" ||
		sum.Endpoints[0].P50MS <= 0 || sum.Endpoints[0].P99MS <= 0 {
		t.Fatalf("post_jobs percentiles not populated: %+v", sum.Endpoints)
	}
	if sum.JobDuration.Count != 1 || sum.JobDuration.P50MS <= 0 {
		t.Fatalf("job duration summary = %+v", sum.JobDuration)
	}

	// Every log line is structured JSON; the startup banner and at least one
	// access line must be present with their key fields.
	var sawBanner, sawAccess bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		switch rec["msg"] {
		case "ddserved listening":
			sawBanner = rec["addr"] == addr && rec["workers"] == float64(1)
		case "http request":
			if rec["route"] == "post_jobs" {
				sawAccess = rec["method"] == "POST" && rec["status"] == float64(202)
			}
		}
	}
	if !sawBanner || !sawAccess {
		t.Fatalf("banner=%v access=%v in logs:\n%s", sawBanner, sawAccess, logs.String())
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDebugMux checks the opt-in diagnostics surface: pprof's index and the
// expvar JSON dump, wired explicitly rather than via DefaultServeMux.
func TestDebugMux(t *testing.T) {
	ts := httptest.NewServer(debugMux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET expvar: %v", err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Errorf("expvar dump missing memstats: %v", vars)
	}
}

func TestVersionBanner(t *testing.T) {
	got := version.String("ddserved")
	if !strings.HasPrefix(got, "ddserved version ") || strings.ContainsRune(got, '\n') {
		t.Fatalf("banner %q is not a single 'ddserved version X' line", got)
	}
}

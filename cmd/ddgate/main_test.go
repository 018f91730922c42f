package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demandrace/internal/cluster"
	"demandrace/internal/service"
	"demandrace/internal/version"
)

// TestGatewayEndToEnd boots the gateway binary's run() over two in-process
// ddserved backends, pushes one job through with the stock client, and
// checks the cluster surfaces (/v1/stats aggregation, /metrics, /healthz)
// plus graceful shutdown.
func TestGatewayEndToEnd(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		s := service.NewServer(service.Config{Workers: 1})
		s.Start()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		urls = append(urls, ts.URL)
	}
	backends, err := cluster.ParseBackends(strings.Join(urls, ","))
	if err != nil {
		t.Fatalf("ParseBackends: %v", err)
	}

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr:     "127.0.0.1:0",
			addrFile: addrFile,
			cfg: cluster.Config{
				Backends:      backends,
				ProbeInterval: 50 * time.Millisecond,
				Retry:         service.Options{Backoff: time.Millisecond},
			},
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
		t.Fatal("gateway never wrote -addr-file")
	}
	base := "http://" + addr

	cl := &service.Client{BaseURL: base}
	data, st, err := cl.Run(context.Background(), service.Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Run through gateway: %v", err)
	}
	if st.State != service.StateDone || len(data) == 0 {
		t.Fatalf("job ended %q with %d result bytes", st.State, len(data))
	}
	if name, _, ok := strings.Cut(st.ID, ":"); !ok || name == "" {
		t.Fatalf("job id %q is not backend-namespaced", st.ID)
	}

	// Same request again: must be the owning backend's cache hit.
	again, err := cl.Submit(context.Background(), service.Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !again.CacheHit {
		t.Fatal("resubmission through the gateway missed the cache")
	}

	var cs cluster.ClusterStats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if cs.Node != "ddgate" || cs.Ring.Members != 2 || cs.Jobs.Completed < 1 {
		t.Fatalf("cluster stats = node %q ring %+v jobs %+v", cs.Node, cs.Ring, cs.Jobs)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("gateway did not shut down")
	}
}

func TestRunRejectsEmptyBackends(t *testing.T) {
	err := run(context.Background(), options{addr: "127.0.0.1:0"})
	if err == nil {
		t.Fatal("run accepted a config with no backends")
	}
}

func TestVersionBanner(t *testing.T) {
	got := version.String("ddgate")
	if !strings.HasPrefix(got, "ddgate version ") || strings.ContainsRune(got, '\n') {
		t.Fatalf("banner %q is not a single 'ddgate version X' line", got)
	}
}

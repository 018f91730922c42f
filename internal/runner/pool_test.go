package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/program"
	"demandrace/internal/workloads"
)

// TestPooledHierarchyReuse interleaves runs on three cache configurations —
// the default, a tiny LLC-less machine and an SMT machine — from several
// goroutines, so pooled hierarchies are reused across programs, policies and
// goroutines and are dropped on a configuration mismatch. Every report must
// be byte-equal to one computed on a freshly built hierarchy.
func TestPooledHierarchyReuse(t *testing.T) {
	caches := []cache.Config{
		cache.DefaultConfig(),
		{Cores: 2, SMT: 1, L1Sets: 4, L1Ways: 2},
		{Cores: 2, SMT: 2, L1Sets: 64, L1Ways: 8},
	}
	var progs []*program.Program
	for _, name := range []string{"micro_eviction", "micro_producer_consumer", "racy_flag"} {
		k, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("kernel %q missing", name)
		}
		progs = append(progs, k.Build(workloads.DefaultConfig()))
	}
	type job struct {
		p   *program.Program
		cfg Config
	}
	var jobs []job
	for _, p := range progs {
		for _, cc := range caches {
			for _, pol := range []demand.PolicyKind{demand.HITMDemand, demand.Continuous} {
				cfg := Config{Cache: cc, Demand: demand.DefaultConfig()}.WithPolicy(pol)
				jobs = append(jobs, job{p, cfg})
			}
		}
	}
	run := func(j job) []byte {
		rep, err := RunContext(context.Background(), j.p, j.cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Error(err)
		}
		return b
	}

	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		for hierPool.Get() != nil { // drain, so the reference run builds afresh
		}
		want[i] = run(j)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for n := range jobs {
					i := (n + g*len(jobs)/goroutines + round) % len(jobs) // each goroutine starts elsewhere
					if got := run(jobs[i]); !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d job %d (%s on %+v): report differs from a fresh hierarchy's",
							g, i, jobs[i].p.Name, jobs[i].cfg.Cache)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"demandrace/internal/cluster"
	"demandrace/internal/demand"
	"demandrace/internal/obs"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/runner"
	"demandrace/internal/service"
	"demandrace/internal/store"
	"demandrace/internal/workloads"
)

// pick is element pos of a seeded shuffle of 0..n-1 that is redrawn every
// n positions, so each consecutive run of n picks covers every element
// once. stream separates independent sequences drawn from one seed.
func pick(seed int64, n int, pos int, stream ...uint64) int {
	parts := append(stream, uint64(pos/n))
	return rand.New(rand.NewSource(int64(mix(seed, parts...)))).Perm(n)[pos%n]
}

// mix hashes the workload seed with a stream position into a
// deterministic pseudo-random number (splitmix64).
func mix(seed int64, parts ...uint64) uint64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// node is one in-process service.Server on a loopback port.
type node struct {
	srv *service.Server
	st  *store.Store // nil when the node keeps results in memory only
	hs  *httptest.Server
}

// startNode starts a server; with a store directory its results also go
// to disk. tr, when set, times the node's API calls.
func startNode(name, storeDir string, tr *tracer, onBody func(string, []byte)) (*node, error) {
	n := &node{}
	cfg := service.Config{Node: name}
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return nil, err
		}
		n.st, cfg.Store = st, st
	}
	n.srv = service.NewServer(cfg)
	n.srv.Start()
	var h http.Handler = n.srv.Handler()
	if tr != nil {
		h = tr.handler(name, backendLayer, h, onBody)
	}
	n.hs = httptest.NewServer(h)
	return n, nil
}

func (n *node) stop() {
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // drains in-flight jobs; nothing to report on a timeout
	if n.st != nil {
		_ = n.st.Close() // read back by nothing once the run ends
	}
}

// newClient is a service.Client with a private connection pool, timed by
// tr when set. Its poll interval is the default, as for ddrace -submit.
func newClient(base string, tr *tracer) (*service.Client, *http.Transport) {
	t := newTransport()
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &transport{t: tr, track: "client", layer: "client", base: t}
	}
	return &service.Client{BaseURL: base, HTTPClient: &http.Client{Transport: rt}}, t
}

// jobKernels are the kernels service-jobs requests: the phoenix and
// parsec suites.
func jobKernels() []string {
	var out []string
	for _, s := range []string{"phoenix", "parsec"} {
		for _, k := range workloads.Suite(s) {
			out = append(out, k.Name)
		}
	}
	return out
}

const hotSetSize = 8

// serviceJobs is a gateway over two backends with replication, driven by
// clients that each alternate a cache miss and a cache hit.
type serviceJobs struct {
	o         options
	dir       string
	kernels   []string
	nodes     []*node
	gw        *cluster.Gateway
	gwHS      *httptest.Server
	gwRT      *http.Transport
	clients   []*service.Client
	pools     []*http.Transport
	next      []int    // per-client position in its request stream
	hotResult [][]byte // each hot request's first result

	mu     sync.Mutex
	done   []jobOp // traced pass only
	traced bool
}

// jobOp is what the traced pass keeps of one operation.
type jobOp struct {
	id      string
	miss    bool
	jobID   string
	hit     bool   // the server answered from its cache
	result  []byte // miss results, for the store measurement
	jobSpan []obs.SpanRecord
}

func setupServiceJobs(o options) (instance, error) {
	dir, err := os.MkdirTemp(o.dir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &serviceJobs{o: o, dir: dir, kernels: jobKernels(), next: make([]int, o.clients)}
	var backends []cluster.Backend
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("backend-%d", i)
		n, err := startNode(name, filepath.Join(dir, name), o.tr, nil)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		backends = append(backends, cluster.Backend{Name: name, URL: n.hs.URL})
	}
	f.gwRT = newTransport()
	var up http.RoundTripper = f.gwRT
	if o.tr != nil {
		up = &transport{t: o.tr, track: "gateway", layer: "cluster.upstream", base: f.gwRT}
	}
	f.gw, err = cluster.NewGateway(cluster.Config{
		Backends: backends, Replicas: 2, HTTPClient: &http.Client{Transport: up},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	var gh http.Handler = f.gw.Handler()
	if o.tr != nil {
		gh = o.tr.handler("gateway", func(rt string) string { return "cluster.gateway_" + rt }, gh, nil)
	}
	f.gwHS = httptest.NewServer(gh)
	f.gw.Start()
	for c := 0; c < o.clients; c++ {
		cl, pool := newClient(f.gwHS.URL, o.tr)
		f.clients = append(f.clients, cl)
		f.pools = append(f.pools, pool)
	}
	if err := f.prime(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// hotRequest is the k-th request of the hot set. The hot kernels are an
// evenly spaced selection of the kernel list, the same for every seed,
// so the cost of a hit does not depend on the seed; the seed picks each
// hot request's own seed.
func (f *serviceJobs) hotRequest(k int) service.Request {
	kern := f.kernels[k*len(f.kernels)/hotSetSize]
	return service.Request{Kernel: kern, Seed: int64(mix(f.o.seed, 1, uint64(k))%(1<<20)) + 1}
}

// request is client c's i-th request: even positions are misses with a
// fresh seed, odd ones a hot-set request. Misses take the kernels, and
// hits the hot set, in seeded rounds that hold each once.
func (f *serviceJobs) request(c, i int) (req service.Request, miss bool, hot int) {
	if i%2 == 0 {
		kern := f.kernels[pick(f.o.seed, len(f.kernels), i/2, 2, uint64(c))]
		// Bit 40 keeps miss seeds apart from the hot set's, all below 2^20.
		seed := int64(1)<<40 | int64(c)<<32 | int64(i)
		return service.Request{Kernel: kern, Seed: seed}, true, -1
	}
	hot = pick(f.o.seed, hotSetSize, i/2, 3, uint64(c))
	return f.hotRequest(hot), false, hot
}

// prime runs the hot set once through the fleet and checks each result
// against a local run of the same request. It waits on the owning
// backend directly rather than by polling, so set-up time carries no
// poll-interval artifacts.
func (f *serviceJobs) prime() error {
	cl := f.clients[0]
	for k := 0; k < hotSetSize; k++ {
		req := f.hotRequest(k)
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		data, err := f.primeOne(ctx, cl, req)
		cancel()
		if err != nil {
			return fmt.Errorf("priming %s: %w", req.Kernel, err)
		}
		want, err := localResult(req)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, want) {
			return fmt.Errorf("hot request %s/%d: service result differs from a local run", req.Kernel, req.Seed)
		}
		f.hotResult = append(f.hotResult, data)
	}
	return nil
}

func (f *serviceJobs) primeOne(ctx context.Context, cl *service.Client, req service.Request) ([]byte, error) {
	st, err := cl.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	// Gateway job IDs are "<backend>:<backend's job ID>".
	name, remote, ok := strings.Cut(st.ID, ":")
	if !ok {
		return nil, fmt.Errorf("job ID %q names no backend", st.ID)
	}
	for i, n := range f.nodes {
		if name != fmt.Sprintf("backend-%d", i) {
			continue
		}
		done, err := n.srv.Wait(ctx, remote)
		if err != nil {
			return nil, err
		}
		if done.State != service.StateDone {
			return nil, fmt.Errorf("job %s ended %s: %s", st.ID, done.State, done.Error)
		}
	}
	return cl.Result(ctx, st.ID)
}

// localResult runs a default-shaped request through the library directly:
// the configuration a service request with only Kernel and Seed set
// normalizes to.
func localResult(req service.Request) ([]byte, error) {
	k, ok := workloads.ByName(req.Kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", req.Kernel)
	}
	cfg := runner.DefaultConfig().WithPolicy(demand.HITMDemand)
	cfg.PMU.SampleAfter = 1
	cfg.PMU.Seed = req.Seed
	cfg.Demand.SampleRate = 0.1
	cfg.Demand.Seed = req.Seed
	cfg.Sched.Seed = req.Seed
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	rep, err := runner.RunContext(ctx, k.Build(workloads.Config{Threads: 4, Scale: 1}), cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

func (f *serviceJobs) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "service-jobs seed=%d clients=%d\n", f.o.seed, f.o.clients)
	for k := 0; k < hotSetSize; k++ {
		r := f.hotRequest(k)
		fmt.Fprintf(h, "hot %s %d\n", r.Kernel, r.Seed)
	}
	for c := 0; c < f.o.clients; c++ {
		for i := 0; i < 1024; i++ {
			r, _, _ := f.request(c, i)
			fmt.Fprintf(h, "%d %d %s %d\n", c, i, r.Kernel, r.Seed)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// op runs client c's next request and checks its result.
func (f *serviceJobs) op(ctx context.Context, c int, rec *recorder) {
	i := f.next[c]
	f.next[c]++
	req, miss, hot := f.request(c, i)
	id := fmt.Sprintf("job-%d-%d", c, i)
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	ctx = withOp(octx, id)
	if f.traced {
		ctx = tracectx.Into(ctx, tracectx.New())
	}
	opStart := time.Now()
	data, st, err := f.clients[c].Run(ctx, req)
	opEnd := time.Now()
	class := "hit"
	if miss {
		class = "miss"
	}
	if err == nil {
		err = f.check(req, miss, hot, data, st)
	}
	rec.add(class, req.Kernel, opEnd.Sub(opStart), 1, err)
	if !f.traced || err != nil {
		return
	}
	f.o.tr.add(span{id: id, name: "jobs.op", track: "client", op: id, start: opStart, end: opEnd})
	jo := jobOp{id: id, miss: miss, jobID: st.ID, hit: st.CacheHit}
	if miss {
		jo.result = data
	}
	// The job's server-side waterfall, fetched outside the timed call and
	// outside the operation's trace.
	if doc, err := f.clients[c].JobTrace(octx, st.ID); err == nil {
		jo.jobSpan, _, _ = obs.DecodeSpanTrace(doc)
	}
	f.mu.Lock()
	f.done = append(f.done, jo)
	f.mu.Unlock()
}

// check is the output check of one job: a hit returns its key's first
// result byte for byte, and a miss returns the report of the requested
// kernel, freshly computed.
func (f *serviceJobs) check(req service.Request, miss bool, hot int, data []byte, st service.Status) error {
	if !miss {
		if !st.CacheHit {
			return fmt.Errorf("hot request %s was not a cache hit", req.Kernel)
		}
		if !bytes.Equal(data, f.hotResult[hot]) {
			return fmt.Errorf("hot request %s: result differs from its first result", req.Kernel)
		}
		return nil
	}
	if st.CacheHit {
		return fmt.Errorf("fresh request %s/%d was a cache hit", req.Kernel, req.Seed)
	}
	var rep struct{ Program string }
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("miss result: %w", err)
	}
	if rep.Program != req.Kernel {
		return fmt.Errorf("miss result is for %q, asked for %q", rep.Program, req.Kernel)
	}
	return nil
}

// run drives the clients as a closed loop until the deadline. Each client
// completes at least one miss and one hit, so every class has a sample.
func (f *serviceJobs) run(ctx context.Context, until time.Time, rec *recorder) {
	var wg sync.WaitGroup
	for c := range f.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < 2 || time.Now().Before(until); n++ {
				f.op(ctx, c, rec)
			}
		}(c)
	}
	wg.Wait()
}

func (f *serviceJobs) table(rec *recorder, elapsed time.Duration) []metric {
	miss, hit := rec.samples("miss"), rec.samples("hit")
	return []metric{
		{Name: "jobs_per_s", Value: rec.work / elapsed.Seconds(), Unit: "1/s"},
		{Name: "job_ms_p50_miss", Value: quantile(miss, 0.5), Unit: "ms", Note: fmt.Sprintf("n=%d", len(miss))},
		tailMetric("job_ms_p99_miss", miss),
		{Name: "job_ms_p50_hit", Value: quantile(hit, 0.5), Unit: "ms", Note: fmt.Sprintf("n=%d", len(hit))},
		tailMetric("job_ms_p99_hit", hit),
	}
}

func (f *serviceJobs) runTraced(ctx context.Context, until time.Time, rec *recorder, tr *tracer) {
	elapsed := referencedPass(ctx, until, rec, tr, &f.traced, f.run)
	ops := f.done
	setServiceLayers(tr, ops, elapsed)
	setClusterLayers(tr, elapsed)
	var results [][]byte
	misses := 0
	for _, o := range ops {
		if o.miss {
			misses++
			results = append(results, o.result)
		}
	}
	tr.set("replica.writes_per_miss", ratio(float64(len(spansNamed(tr, "replica.write"))), float64(misses)))
	tr.set("replica.write_ms", medianDur(spansNamed(tr, "replica.write")))
	if err := measureStore(tr, filepath.Join(f.dir, "scratch-store"), results); err != nil {
		rec.add("store", "", 0, 0, err)
	}
}

func (f *serviceJobs) close() {
	for _, p := range f.pools {
		p.CloseIdleConnections()
	}
	if f.gwHS != nil {
		f.gwHS.Close()
	}
	if f.gw != nil {
		f.gw.Stop()
	}
	if f.gwRT != nil {
		f.gwRT.CloseIdleConnections()
	}
	for _, n := range f.nodes {
		n.stop()
	}
	if f.dir != "" {
		_ = os.RemoveAll(f.dir) // scratch only
	}
}

// ---- layer metrics from spans ----

func spansNamed(tr *tracer, name string) []span {
	var out []span
	for _, s := range tr.snapshot() {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

func medianDur(spans []span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = ms(s.dur())
	}
	return median(xs)
}

// setServiceLayers computes the service.* and client.* metrics of a
// traced pass from its spans and the jobs' server-side waterfalls.
func setServiceLayers(tr *tracer, ops []jobOp, elapsed time.Duration) {
	tr.set("service.submit_ms", medianDur(spansNamed(tr, "service.submit")))
	tr.set("service.trace_submit_ms", medianDur(spansNamed(tr, "service.trace_submit")))
	tr.set("service.status_ms", medianDur(spansNamed(tr, "service.status")))
	tr.set("service.result_ms", medianDur(spansNamed(tr, "service.result")))

	polls := make(map[string]int)
	reqs := make(map[string]int)
	lastStatus := make(map[string]time.Time)
	for _, s := range tr.snapshot() {
		if s.track != "client" || s.name == "jobs.op" || s.name == "uploads.op" {
			continue
		}
		reqs[s.op]++
		if s.name == "client.status" {
			polls[s.op]++
			if s.end.After(lastStatus[s.op]) {
				lastStatus[s.op] = s.end
			}
		}
	}
	stage := map[string][]float64{}
	var hits, nPolled, nPolls, nReqs float64
	var slack []float64
	for _, o := range ops {
		if o.hit {
			hits++
		}
		nReqs += float64(reqs[o.id])
		if o.jobID == "" {
			continue
		}
		if p, ok := polls[o.id]; ok {
			nPolled++
			nPolls += float64(p)
		}
		for _, r := range o.jobSpan {
			switch r.Name {
			case "cache_lookup", "queue_wait", "analysis", "render":
				stage[r.Name] = append(stage[r.Name], ms(r.Dur))
			case "job":
				if seen, ok := lastStatus[o.id]; ok && !o.hit {
					slack = append(slack, ms(seen.Sub(r.Start.Add(r.Dur))))
				}
			}
		}
	}
	tr.set("service.cache_hit_share", ratio(hits, float64(len(ops))))
	for _, n := range []string{"cache_lookup", "queue_wait", "analysis", "render"} {
		tr.set("service."+n+"_ms", median(stage[n]))
	}
	tr.set("client.polls_per_job", ratio(nPolls, nPolled))
	tr.set("client.requests_per_job", ratio(nReqs, float64(len(ops))))
	// The mean, not the median: a miss either finishes before the first
	// poll (no slack) or waits out the poll interval, so the median flips
	// between the two.
	tr.set("client.wait_slack_ms", mean(slack))
}

// setClusterLayers links each upstream call to the gateway request that
// made it (same trace, inside its interval) and computes the cluster.*
// metrics. Upstream calls with no trace are background work: probes,
// replication, stats and event tails.
func setClusterLayers(tr *tracer, elapsed time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	byTrace := make(map[string][]int)
	var background, traced int
	for i, s := range tr.spans {
		if s.track != "gateway" || s.name == "cluster.upstream.job_trace" || !strings.HasPrefix(s.name, "cluster.upstream.") {
			continue
		}
		if s.trace == "" {
			background++
			continue
		}
		traced++
		byTrace[s.trace] = append(byTrace[s.trace], i)
	}
	perRoute := make(map[string][]float64)
	var self []float64
	var gwReqs int
	for _, s := range tr.spans {
		if !strings.HasPrefix(s.name, "cluster.gateway_") || s.trace == "" || s.name == "cluster.gateway_job_trace" {
			continue
		}
		gwReqs++
		perRoute[s.name] = append(perRoute[s.name], ms(s.dur()))
		up := time.Duration(0)
		for _, i := range byTrace[s.trace] {
			u := &tr.spans[i]
			if !u.start.Before(s.start) && !u.end.After(s.end) {
				u.parent = s.id
				up += u.dur()
			}
		}
		self = append(self, ms(s.dur()-up))
	}
	for _, rt := range []string{"submit", "status", "result"} {
		tr.vals["cluster.gateway_"+rt+"_ms"] = median(perRoute["cluster.gateway_"+rt])
	}
	tr.vals["cluster.gateway_self_ms"] = median(self)
	tr.vals["cluster.upstream_per_request"] = ratio(float64(traced), float64(gwReqs))
	tr.vals["cluster.background_rps"] = float64(background) / elapsed.Seconds()
}

// measureStore times Store.Put and Store.Get of the pass's own result
// documents on a scratch store.
func measureStore(tr *tracer, dir string, results [][]byte) error {
	if len(results) == 0 {
		return errors.New("no results to store")
	}
	if len(results) > 256 {
		results = results[:256]
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var puts, gets []float64
	var bytesTotal float64
	for i, data := range results {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], uint64(i))
		key := hex.EncodeToString(kb[:])
		start := time.Now()
		if err := st.Put(key, data); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(start)))
		bytesTotal += float64(len(data))
	}
	for i, data := range results {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], uint64(i))
		start := time.Now()
		got, ok := st.Get(hex.EncodeToString(kb[:]))
		gets = append(gets, ms(time.Since(start)))
		if !ok || !bytes.Equal(got, data) {
			return fmt.Errorf("store returned a different document for key %d", i)
		}
	}
	tr.set("store.put_ms", median(puts))
	tr.set("store.get_ms", median(gets))
	tr.set("store.bytes_per_result", bytesTotal/float64(len(results)))
	return nil
}

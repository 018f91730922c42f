// Command ddrace runs bundled workload kernels under a chosen analysis
// policy and prints the race and performance report.
//
// Multi-run modes (-batch, -compare, -explore) fan their independent runs
// out across a worker pool (-workers, one per CPU by default); stdout is
// byte-identical for any worker count, and a timing table goes to stderr.
//
// Telemetry: -trace writes a Chrome trace-event JSON timeline (open in
// Perfetto or chrome://tracing), -events writes an NDJSON event log, and
// -metrics prints a Prometheus-style text exposition. All three are
// timestamped in simulated cycles, never wall clock, so they are
// byte-deterministic.
//
// Usage:
//
//	ddrace -kernel histogram -policy hitm-demand
//	ddrace -kernel racy_counter -policy continuous -threads 8 -lockset
//	ddrace -list
//	ddrace -kernel kmeans -compare             # all policies side by side
//	ddrace -kernel racy_flag -trace out.json   # Chrome trace-event timeline
//	ddrace -kernel racy_flag -metrics          # metrics exposition
//	ddrace -kernel racy_flag -record out.drt   # binary trace for ddreplay
//	ddrace -batch phoenix                      # whole suite, one row per kernel
//	ddrace -batch all -policy continuous       # every bundled kernel
//	ddrace -batch histogram,kmeans,x264        # explicit kernel list
//	ddrace -kernel kmeans -profile out.folded  # deterministic cycle profile
//	ddrace -kernel kmeans -submit http://localhost:8318 -save-trace wf.json
//	ddrace -stream out.drt -submit http://localhost:8318   # chunked resumable upload
//	ddrace -watch http://localhost:8418        # tail the live cluster event feed
//	ddrace -alerts http://localhost:8418       # tail only alert transitions as NDJSON
//
// The -watch and -alerts tails survive dropped connections: they reconnect
// with backoff and send Last-Event-ID so the server replays missed events
// from its retained ring.
//
// Wall-clock diagnostics (the batch timing table, structured progress
// lines) go to stderr through a leveled logger; -log-level=error silences
// them, -log-format=json makes them machine-readable. The -profile output
// is NOT wall clock: it samples the simulated-cycle clock, so the folded
// stacks are byte-identical across runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"demandrace"
	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/obs"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/parallel"
	"demandrace/internal/prof"
	"demandrace/internal/report"
	"demandrace/internal/sched"
	"demandrace/internal/service"
	"demandrace/internal/stats"
	"demandrace/internal/trace"
	"demandrace/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ddrace:", err)
		os.Exit(1)
	}
}

func parsePolicy(s string) (demandrace.Policy, error) { return demand.ParsePolicy(s) }

func parseScope(s string) (demandrace.Scope, error) { return demand.ParseScope(s) }

// run executes one CLI invocation, writing comparable output to out and
// wall-clock diagnostics (the batch timing table) to diag. The split keeps
// stdout byte-deterministic across worker counts.
func run(args []string, out, diag io.Writer) error {
	fs := flag.NewFlagSet("ddrace", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list bundled kernels and exit")
		kernel    = fs.String("kernel", "", "kernel to run (see -list)")
		batch     = fs.String("batch", "", "run many kernels under -policy: comma-separated names, a suite (phoenix|parsec|micro|racy), or \"all\"")
		workersF  = fs.Int("workers", 0, "parallel fan-out for -batch/-compare/-explore (0 = one per CPU, 1 = serial)")
		policy    = fs.String("policy", "hitm-demand", "analysis policy: off|continuous|sync-only|hitm-demand|hybrid|sampling|watch-demand|page-demand")
		rate      = fs.Float64("rate", 0.1, "per-access analysis probability for -policy sampling")
		watchcap  = fs.Int("watchcap", 0, "watchpoint registers per context for -policy watch-demand (0 = default 4)")
		scope     = fs.String("scope", "global", "demand scope: global|pair|self")
		threads   = fs.Int("threads", 4, "worker thread count")
		scale     = fs.Int("scale", 1, "workload scale factor")
		cores     = fs.Int("cores", 4, "simulated cores")
		smt       = fs.Int("smt", 1, "hardware contexts per core")
		prefetch  = fs.Bool("prefetch", false, "enable the next-line hardware prefetcher")
		moesi     = fs.Bool("moesi", false, "simulate an AMD-style MOESI machine instead of MESI")
		sav       = fs.Uint64("sav", 1, "PMU sample-after value")
		skid      = fs.Int("skid", 0, "PMU interrupt skid (retired ops)")
		quiet     = fs.Uint64("quiet", 0, "quiet ops before dropping to fast mode (0 = default)")
		adaptive  = fs.Bool("adaptive", false, "adapt the quiet window at run time")
		seed      = fs.Int64("seed", 0, "scheduler/PMU seed")
		random    = fs.Bool("random", false, "use seeded random interleaving instead of round-robin")
		lockset   = fs.Bool("lockset", false, "also run the Eraser lockset engine")
		deadlockF = fs.Bool("deadlock", false, "also run the lock-order (potential deadlock) engine")
		fullvc    = fs.Bool("fullvc", false, "use the full-vector-clock detector variant")
		compare   = fs.Bool("compare", false, "run all policies and print a comparison table")
		explore   = fs.Int("explore", 0, "explore N random interleavings and aggregate racy words")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON timeline (simulated-cycle timestamps) to this file")
		eventsOut = fs.String("events", "", "write the telemetry event log as NDJSON to this file")
		metricsF  = fs.Bool("metrics", false, "print a Prometheus-style metrics exposition after the report")
		recordOut = fs.String("record", "", "write a binary replay trace of the run to this file (see ddreplay)")
		injectN   = fs.Int("inject", 0, "inject N synthetic races before running")
		injectRep = fs.Int("inject-repeats", 3, "accesses per side of each injected race")
		verbose   = fs.Bool("v", false, "print every race report")
		asJSON    = fs.Bool("json", false, "emit the full report as JSON")
		htmlOut   = fs.String("html", "", "write a self-contained HTML report to this file")
		submitURL = fs.String("submit", "", "submit the run to a ddserved daemon at this base URL instead of running locally")
		apiKey    = fs.String("api-key", "", "with -submit/-stream: API key sent as X-API-Key (required against daemons running -tenants)")
		streamIn  = fs.String("stream", "", "with -submit: stream this recorded .drt trace to the daemon as a chunked resumable upload, printing race_found NDJSON lines as the server analyzes mid-stream")
		chunkSize = fs.Int("chunk-bytes", 1<<20, "with -stream: chunk split size in bytes (clamped to the server's advertised max)")
		streamFlt = fs.Int("stream-fault", 0, "with -stream: inject one simulated connection drop after N chunks to exercise the resume protocol")
		saveTrace = fs.String("save-trace", "", "with -submit: also fetch the job's server-side span waterfall and write the Chrome trace JSON to this file")
		watchURL  = fs.String("watch", "", "tail the live event stream of a ddserved or ddgate at this base URL, printing one JSON event per line")
		alertsURL = fs.String("alerts", "", "like -watch, but print only alert_firing/alert_resolved events")
		watchN    = fs.Int("watch-count", 0, "with -watch/-alerts: exit after N events (0 = tail until interrupted)")
		profOut   = fs.String("profile", "", "write a deterministic folded-stack cycle profile (flamegraph-ready) to this file and print the top sites")
		profEvery = fs.Uint64("profile-every", 0, "cycle-profiler sampling period in simulated cycles (0 = default 1024)")
		verFlag   = fs.Bool("version", false, "print the version and exit")
	)
	logFlags := olog.Register(fs, olog.FormatText)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg, err := logFlags.Logger(diag)
	if err != nil {
		return err
	}
	// The timing table and other wall-clock diagnostics flow through the
	// logger's level gate: -log-level=error leaves stderr silent.
	timingDiag := diag
	if !lg.Enabled(context.Background(), slog.LevelInfo) {
		timingDiag = io.Discard
	}
	if *verFlag {
		fmt.Fprintln(out, version.String("ddrace"))
		return nil
	}

	if *list {
		tb := stats.NewTable("bundled kernels", "name", "suite", "sharing profile")
		for _, k := range demandrace.Kernels() {
			tb.AddRow(k.Name, k.Suite, k.Sharing)
		}
		fmt.Fprint(out, tb)
		return nil
	}
	if *watchURL != "" && *alertsURL != "" {
		return fmt.Errorf("-watch and -alerts are exclusive modes")
	}
	if *watchURL != "" {
		return watchEvents(out, *watchURL, *watchN, nil)
	}
	if *alertsURL != "" {
		return watchEvents(out, *alertsURL, *watchN, func(ev stream.Event) bool {
			return ev.Type == stream.TypeAlertFiring || ev.Type == stream.TypeAlertResolved
		})
	}
	if *saveTrace != "" && *submitURL == "" {
		return fmt.Errorf("-save-trace needs -submit (local runs use -trace)")
	}
	if *streamIn != "" && *submitURL == "" {
		return fmt.Errorf("-stream needs -submit (local traces replay with ddreplay)")
	}
	if err := service.ValidateMachine(*cores, *smt); err != nil {
		return fmt.Errorf("invalid -cores/-smt: %w", err)
	}
	if err := service.ValidateKernel(*threads, *scale); err != nil {
		return fmt.Errorf("invalid -threads/-scale: %w", err)
	}
	if *submitURL != "" {
		if *streamIn != "" {
			opts := service.TraceOptions{FullVC: *fullvc, MaxReports: -1}
			return streamRemote(out, lg, *submitURL, *apiKey, *streamIn, opts, service.StreamOptions{
				ChunkBytes: *chunkSize,
				FaultAfter: *streamFlt,
			}, *asJSON, *verbose)
		}
		if *kernel == "" {
			return fmt.Errorf("-submit needs -kernel (batch submission is not supported)")
		}
		req := service.Request{
			Kernel: *kernel, Threads: *threads, Scale: *scale,
			Policy: *policy, Scope: *scope,
			Cores: *cores, SMT: *smt, Prefetch: *prefetch, MOESI: *moesi,
			SampleAfter: *sav, Skid: *skid,
			QuietOps: *quiet, Adaptive: *adaptive, SampleRate: *rate, WatchCap: *watchcap,
			Seed: *seed, Random: *random,
			Lockset: *lockset, Deadlock: *deadlockF, FullVC: *fullvc,
			Profile: *profOut != "", ProfileEvery: *profEvery,
		}
		return submitRemote(out, lg, *submitURL, *apiKey, req, *asJSON, *verbose, *profOut, *saveTrace)
	}

	cfg := demandrace.DefaultConfig()
	cfg.Cache.Cores = *cores
	cfg.Cache.SMT = *smt
	cfg.Cache.NextLinePrefetch = *prefetch
	if *moesi {
		cfg.Cache.Protocol = cache.MOESI
	}
	cfg.PMU.SampleAfter = *sav
	cfg.PMU.Skid = *skid
	cfg.PMU.Seed = *seed
	cfg.Demand.QuietOps = *quiet
	cfg.Demand.SampleRate = *rate
	cfg.Demand.Seed = *seed
	cfg.Demand.WatchCapacity = *watchcap
	cfg.Demand.Adaptive = *adaptive
	cfg.Lockset = *lockset
	cfg.Deadlock = *deadlockF
	cfg.Detector.FullVC = *fullvc
	cfg.Sched.Seed = *seed
	if *random {
		cfg.Sched.Policy = sched.RandomInterleave
	}
	sc, err := parseScope(*scope)
	if err != nil {
		return err
	}
	cfg.Demand.Scope = sc

	if *batch != "" {
		if *traceOut != "" || *eventsOut != "" || *recordOut != "" || *profOut != "" {
			return fmt.Errorf("-trace/-events/-record/-profile apply to single-kernel runs; drop them or use -kernel")
		}
		pol, err := parsePolicy(*policy)
		if err != nil {
			return err
		}
		return runBatch(out, timingDiag, *batch, cfg.WithPolicy(pol),
			demandrace.KernelConfig{Threads: *threads, Scale: *scale}, *workersF, *metricsF)
	}

	if *kernel == "" {
		return fmt.Errorf("missing -kernel (use -list to see choices)")
	}
	k, ok := demandrace.KernelByName(*kernel)
	if !ok {
		return fmt.Errorf("unknown kernel %q (use -list)", *kernel)
	}
	p := k.Build(demandrace.KernelConfig{Threads: *threads, Scale: *scale})

	var injections []demandrace.Injection
	if *injectN > 0 {
		p, injections, err = demandrace.InjectRaces(p, demandrace.InjectionConfig{
			Seed: *seed, Count: *injectN, Repeats: *injectRep,
		})
		if err != nil {
			return err
		}
		for _, in := range injections {
			fmt.Fprintln(out, in)
		}
	}

	if *compare {
		if *profOut != "" {
			return fmt.Errorf("-profile applies to a single run; drop -compare")
		}
		return comparePolicies(out, p, cfg, *workersF, *verbose, *metricsF)
	}

	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg = cfg.WithPolicy(pol)
	if *explore > 0 {
		if *profOut != "" {
			return fmt.Errorf("-profile applies to a single run; drop -explore")
		}
		return exploreSchedules(out, p, cfg, *explore, *workersF)
	}
	if *profOut != "" {
		cfg.Prof = prof.New(*profEvery)
	}
	if *recordOut != "" {
		cfg.Tracer = demandrace.NewTraceRecorder(p.Name)
	}
	// Telemetry rides along whenever any consumer wants it; the HTML page
	// needs the tracer too, for its mode-timeline section.
	if *traceOut != "" || *eventsOut != "" || *htmlOut != "" {
		cfg.Trace = obs.NewTracer()
	}
	if *metricsF {
		cfg.Metrics = obs.NewRegistry()
	}
	rep, err := demandrace.Run(p, cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(out, rep, *verbose)
	}
	if *metricsF {
		if err := cfg.Metrics.WriteProm(out); err != nil {
			return err
		}
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.Write(f, rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "html report written to %s\n", *htmlOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.WriteChromeTrace(f, rep.Program, cfg.Trace.Events(), rep.Timeline); err != nil {
			return err
		}
		fmt.Fprintf(out, "chrome trace: %d events, %d spans written to %s\n",
			cfg.Trace.Len(), len(rep.Timeline), *traceOut)
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.WriteNDJSON(f, cfg.Trace.Events()); err != nil {
			return err
		}
		fmt.Fprintf(out, "event log: %d events written to %s\n", cfg.Trace.Len(), *eventsOut)
	}
	if *recordOut != "" {
		f, err := os.Create(*recordOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.EncodeBinary(f, cfg.Tracer.Trace()); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events written to %s\n",
			len(cfg.Tracer.Trace().Events), *recordOut)
	}
	if *profOut != "" {
		if err := writeProfile(out, *profOut, rep.Profile); err != nil {
			return err
		}
	}
	return nil
}

// writeProfile saves a folded-stack cycle profile (one line per
// thread/mode/site stack, flamegraph.pl-compatible) and prints the top
// sites. Everything here is keyed to simulated cycles, so both the file and
// the table are byte-deterministic.
func writeProfile(out io.Writer, path string, pr *prof.Profile) error {
	if pr == nil {
		return fmt.Errorf("-profile: run produced no profile")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pr.WriteFolded(f); err != nil {
		return err
	}
	fmt.Fprintf(out, "cycle profile: %d samples every %d cycles written to %s\n",
		pr.TotalSamples, pr.Every, path)
	fmt.Fprint(out, pr.Top(10))
	return nil
}

// submitRemote runs the job on a ddserved daemon (or a ddgate cluster
// front — the surfaces are identical): submit, wait for a terminal state
// on GET /v1/jobs/{id}?wait= long-polls (skipped for a cache hit), fetch
// the report, and print it like a local run. With profOut set the
// request asks the daemon for a cycle profile and the folded stacks land
// in the same file a local -profile run would write. Transient daemon
// errors (429 backpressure, 5xx, connection drops) are retried with
// exponential backoff before giving up.
//
// Every submission mints a root trace context; the client propagates it
// as a traceparent header on every hop, so the daemon's logs and the
// saveTrace waterfall are joinable by the trace ID logged here.
func submitRemote(out io.Writer, lg *slog.Logger, base, apiKey string, req service.Request, asJSON, verbose bool, profOut, saveTrace string) error {
	cl := &service.Client{
		BaseURL: strings.TrimRight(base, "/"),
		APIKey:  apiKey,
		Options: service.Options{
			Timeout: 30 * time.Second,
			Retries: 3,
			Backoff: 250 * time.Millisecond,
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	tc := tracectx.New()
	ctx = tracectx.Into(ctx, tc)
	lg.Info("submitting job", "url", base, "kernel", req.Kernel, "trace_id", tc.TraceID())
	data, st, err := cl.Run(ctx, req)
	if err != nil {
		return err
	}
	if saveTrace != "" {
		// Fetch after the job is terminal, so the waterfall covers queue
		// wait through render, not a snapshot of a half-run job.
		td, terr := cl.JobTrace(ctx, st.ID)
		if terr != nil {
			return fmt.Errorf("fetching job trace: %w", terr)
		}
		if werr := os.WriteFile(saveTrace, td, 0o644); werr != nil {
			return fmt.Errorf("writing -save-trace: %w", werr)
		}
	}
	if asJSON && profOut == "" {
		if _, err := out.Write(data); err != nil {
			return err
		}
		return nil
	}
	var rep demandrace.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("decoding daemon report: %w", err)
	}
	if asJSON {
		if _, err := out.Write(data); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "job:       %s on %s (cache hit: %v)\n", st.ID, base, st.CacheHit)
		printReport(out, &rep, verbose)
	}
	if saveTrace != "" && !asJSON {
		fmt.Fprintf(out, "job trace written to %s\n", saveTrace)
	}
	if profOut != "" {
		return writeProfile(out, profOut, rep.Profile)
	}
	return nil
}

// streamRemote pushes a recorded binary trace to a ddserved daemon (or a
// ddgate front) as a chunked resumable upload. The server analyzes each
// chunk as it lands, so races surface mid-upload: every new race prints
// immediately as one race_found NDJSON line, and the sealed report — byte
// identical to a batch upload of the same file — prints at the end.
// Transport drops (including the -stream-fault injected one) resume from
// the server's high-water mark instead of restarting the upload.
func streamRemote(out io.Writer, lg *slog.Logger, base, apiKey, path string, opts service.TraceOptions, sopts service.StreamOptions, asJSON, verbose bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-stream: %w", err)
	}
	cl := &service.Client{
		BaseURL: strings.TrimRight(base, "/"),
		APIKey:  apiKey,
		Options: service.Options{
			Timeout: 30 * time.Second,
			Retries: 3,
			Backoff: 250 * time.Millisecond,
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	tc := tracectx.New()
	ctx = tracectx.Into(ctx, tc)
	lg.Info("streaming trace", "url", base, "file", path,
		"bytes", len(raw), "chunk_bytes", sopts.ChunkBytes, "trace_id", tc.TraceID())

	// Mid-stream races print as they are found; the partial document is
	// cumulative, so only the unseen tail prints each time.
	enc := json.NewEncoder(out)
	seen := 0
	sopts.OnPartial = func(p service.PartialReport) {
		for _, r := range p.Races[seen:] {
			enc.Encode(map[string]any{
				"type": "race_found", "session": p.Session,
				"events": p.Events, "race": r,
			})
		}
		seen = len(p.Races)
	}
	st, err := cl.StreamTrace(ctx, raw, opts, sopts)
	if err != nil {
		return err
	}
	data, err := cl.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	if asJSON {
		_, err := out.Write(data)
		return err
	}
	var rr service.ReplayResult
	if err := json.Unmarshal(data, &rr); err != nil {
		return fmt.Errorf("decoding daemon replay result: %w", err)
	}
	fmt.Fprintf(out, "job:       %s on %s (streamed %d bytes, cache hit: %v)\n",
		st.ID, base, len(raw), st.CacheHit)
	printReplayResult(out, &rr, verbose)
	return nil
}

// printReplayResult renders a trace-replay result the way printReport
// renders a simulation report.
func printReplayResult(out io.Writer, rr *service.ReplayResult, verbose bool) {
	fmt.Fprintf(out, "program:   %s (%d events, %d threads)\n", rr.Program, rr.Events, rr.Threads)
	fmt.Fprintf(out, "sharing:   %d HITM events, %d analyzed when recorded\n", rr.HITM, rr.Analyzed)
	fmt.Fprintf(out, "races:     %d report(s)\n", len(rr.Races))
	if verbose {
		for _, r := range rr.Races {
			fmt.Fprintf(out, "  %v\n", r)
		}
	}
	fmt.Fprintf(out, "detector:  %d reads, %d writes, %d sync ops, %d same-epoch fast paths\n",
		rr.Stats.Reads, rr.Stats.Writes, rr.Stats.SyncOps, rr.Stats.SameEpochHits)
}

// watchEvents tails a server's GET /v1/events SSE feed and prints one
// JSON object per event, skipping any that keep (when non-nil) rejects.
// This is an operator tail, inherently wall-clock: nothing printed here is
// deterministic, which is why it is a standalone mode that never mixes
// with report output. Ctrl-C (or reaching count) ends the tail cleanly.
//
// A dropped connection is not fatal: the tail reconnects with exponential
// backoff (500ms doubling to 5s, reset once events flow again), sending
// Last-Event-ID so the server replays what the outage missed from its
// retained ring. Only an HTTP error status — a server that is up but says
// no — ends the tail with an error.
func watchEvents(out io.Writer, base string, count int, keep func(stream.Event) bool) error {
	url := strings.TrimRight(base, "/") + "/v1/events"
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	const (
		backoffMin = 500 * time.Millisecond
		backoffMax = 5 * time.Second
	)
	var (
		enc     = json.NewEncoder(out)
		printed = 0
		lastSeq uint64 // highest stamped Seq seen, for resume
		resumed = false
		backoff = backoffMin
		conns   = 0
	)
	for {
		conns++
		err := func() error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return err
			}
			if resumed {
				req.Header.Set("Last-Event-ID", fmt.Sprint(lastSeq))
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return &watchHTTPError{url: url, status: resp.StatusCode}
			}
			dec := stream.NewDecoder(resp.Body)
			for {
				ev, err := dec.Next()
				if err != nil {
					return err
				}
				backoff = backoffMin // events flow: the link is healthy
				if ev.Type == stream.TypeHello && conns > 1 {
					continue // one greeting per tail, not per reconnect
				}
				if ev.Seq > 0 {
					// A replayed event can arrive twice across a
					// reconnect race; the Seq watermark dedups it.
					if resumed && ev.Seq <= lastSeq {
						continue
					}
					lastSeq, resumed = ev.Seq, true
				}
				if keep != nil && !keep(ev) {
					continue
				}
				if err := enc.Encode(ev); err != nil {
					return err
				}
				if printed++; count > 0 && printed >= count {
					return errWatchDone
				}
			}
		}()
		switch {
		case ctx.Err() != nil:
			return nil // interrupted: a clean end to a tail
		case err == errWatchDone:
			return nil
		case errors.As(err, new(*watchHTTPError)):
			return err // the server answered and refused; retrying won't help
		}
		// Transport-level drop (dial failure, reset, EOF): wait and retry.
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// errWatchDone ends the tail loop when -watch-count is satisfied.
var errWatchDone = errors.New("watch count reached")

// watchHTTPError is a server-side refusal (non-200), which unlike a
// transport drop is not worth retrying.
type watchHTTPError struct {
	url    string
	status int
}

func (e *watchHTTPError) Error() string {
	return fmt.Sprintf("event tail: %s answered %d", e.url, e.status)
}

func printReport(out io.Writer, rep *demandrace.Report, verbose bool) {
	fmt.Fprintf(out, "program:   %s\n", rep.Program)
	fmt.Fprintf(out, "policy:    %s\n", rep.Policy)
	fmt.Fprintf(out, "slowdown:  %.2f× (%d tool cycles / %d native cycles)\n",
		rep.Slowdown, rep.ToolCycles, rep.NativeCycles)
	fmt.Fprintf(out, "sharing:   %.4f of %d memory accesses HITM (%d peer transfers)\n",
		rep.SharingFraction(), rep.MemOps, rep.SharedPeer)
	fmt.Fprintf(out, "analysis:  %.4f of accesses analyzed, %d samples, %d/%d mode switches on/off\n",
		rep.Demand.AnalyzedFraction(), rep.Demand.Samples,
		rep.Demand.EnableTransitions, rep.Demand.DisableTransitions)
	fmt.Fprintf(out, "races:     %d distinct racy words, %d reports\n",
		len(rep.RacyAddrs()), len(rep.Races))
	if verbose {
		for _, tr := range rep.Threads {
			fmt.Fprintf(out, "  t%d: %.1f%% analyzed (%d/%d accesses)\n",
				tr.TID, 100*tr.AnalyzedFraction(), tr.MemAnalyzed, tr.MemAnalyzed+tr.MemSkipped)
		}
		for _, r := range rep.Races {
			fmt.Fprintf(out, "  %v\n", r)
		}
		for _, r := range rep.LocksetReports {
			fmt.Fprintf(out, "  %v\n", r)
		}
	} else if len(rep.LocksetReports) > 0 {
		fmt.Fprintf(out, "lockset:   %d violations\n", len(rep.LocksetReports))
	}
	for _, r := range rep.DeadlockReports {
		fmt.Fprintf(out, "  %v\n", r)
	}
}

// resolveBatch expands a -batch spec into kernels: "all", a suite name, or
// a comma-separated kernel list.
func resolveBatch(spec string) ([]demandrace.Kernel, error) {
	switch spec {
	case "all":
		return demandrace.Kernels(), nil
	case "phoenix", "parsec", "micro", "racy":
		ks := demandrace.KernelSuite(spec)
		if len(ks) == 0 {
			return nil, fmt.Errorf("suite %q is empty", spec)
		}
		return ks, nil
	}
	var ks []demandrace.Kernel
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		k, ok := demandrace.KernelByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q in -batch (use -list)", name)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// runBatch fans the kernels out across the worker pool — each run owns its
// own program and simulated machine — and prints one summary row per kernel
// in the order the batch named them. With metrics enabled, every run feeds
// one shared registry (counters and histograms commute, so the exposition on
// stdout is byte-identical for any worker count); the wall-clock timing
// table goes to diag only.
func runBatch(out, diag io.Writer, spec string, cfg demandrace.Config, kc demandrace.KernelConfig, workers int, metrics bool) error {
	ks, err := resolveBatch(spec)
	if err != nil {
		return err
	}
	if metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	eng := parallel.New(workers)
	start := time.Now()
	reps, err := parallel.Map(context.Background(), eng, len(ks), func(_ context.Context, i int) (*demandrace.Report, error) {
		p := ks[i].Build(kc)
		r, err := demandrace.Run(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", ks[i].Name, err)
		}
		return r, nil
	})
	wall := time.Since(start)
	if err != nil {
		return err
	}
	tb := stats.NewTable(fmt.Sprintf("batch: %d kernels under %s", len(ks), cfg.Demand.Kind),
		"kernel", "suite", "slowdown (×)", "sharing frac", "analyzed frac", "racy words", "reports")
	for i, r := range reps {
		tb.AddRow(ks[i].Name, ks[i].Suite,
			fmt.Sprintf("%.2f", r.Slowdown),
			fmt.Sprintf("%.4f", r.SharingFraction()),
			fmt.Sprintf("%.4f", r.Demand.AnalyzedFraction()),
			fmt.Sprintf("%d", len(r.RacyAddrs())),
			fmt.Sprintf("%d", len(r.Races)))
	}
	fmt.Fprint(out, tb)
	if metrics {
		if err := cfg.Metrics.WriteProm(out); err != nil {
			return err
		}
	}
	es := eng.Stats()
	if metrics {
		// Engine timing is wall-clock-derived, so it goes through its own
		// registry straight to diag — never the deterministic stdout one.
		dreg := obs.NewRegistry()
		es.Publish(dreg, "batch")
		if err := dreg.WriteProm(diag); err != nil {
			return err
		}
	}
	fmt.Fprint(diag, parallel.TimingTable(eng.Workers(),
		[]parallel.TimingRow{{Name: "batch:" + spec, Wall: wall, Delta: es}}, es, wall))
	return nil
}

func exploreSchedules(out io.Writer, p *demandrace.Program, cfg demandrace.Config, seeds, workers int) error {
	ex, err := demandrace.ExploreParallel(p, cfg, seeds, workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "explored %d interleavings of %s under %s\n",
		ex.Seeds, p.Name, cfg.Demand.Kind)
	fmt.Fprintf(out, "racy words: %d in every schedule, %d flaky, %d total\n",
		len(ex.Intersection), len(ex.FlakyAddrs()), len(ex.Union))
	for _, a := range ex.Union {
		fmt.Fprintf(out, "  %v  hit in %.0f%% of schedules\n", a, 100*ex.HitRate[a])
	}
	return nil
}

func comparePolicies(out io.Writer, p *demandrace.Program, cfg demandrace.Config, workers int, verbose, metrics bool) error {
	kinds := []demandrace.Policy{
		demand.Off, demand.SyncOnly, demand.Sampling, demand.PageDemand, demand.WatchDemand,
		demand.HITMDemand, demand.Hybrid, demand.Continuous,
	}
	if metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	reps, err := demandrace.RunPoliciesParallel(p, cfg, workers, kinds...)
	if err != nil {
		return err
	}
	var contSlow float64
	for _, r := range reps {
		if r.Policy == demand.Continuous {
			contSlow = r.Slowdown
		}
	}
	tb := stats.NewTable(fmt.Sprintf("policy comparison: %s", p.Name),
		"policy", "slowdown", "speedup vs continuous", "analyzed frac", "races")
	for _, r := range reps {
		tb.AddRowf(r.Policy.String(), r.Slowdown, contSlow/r.Slowdown,
			r.Demand.AnalyzedFraction(), len(r.Races))
	}
	fmt.Fprint(out, tb)
	if metrics {
		if err := cfg.Metrics.WriteProm(out); err != nil {
			return err
		}
	}
	if verbose {
		for _, r := range reps {
			for _, rc := range r.Races {
				fmt.Fprintf(out, "[%s] %v\n", r.Policy, rc)
			}
		}
	}
	return nil
}

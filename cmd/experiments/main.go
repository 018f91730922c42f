// Command experiments regenerates the tables and figures of the paper's
// evaluation (reconstructed per DESIGN.md).
//
// Independent simulation runs fan out across a worker pool (one worker per
// CPU by default; bound it with -workers). Tables are byte-identical for
// every worker count; a timing summary — per-experiment wall clock, run
// throughput, and realized parallel speedup — goes to stderr so it never
// perturbs the comparable stdout stream.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig4 -threads 8 -scale 2
//	experiments -exp fig1 -csv
//	experiments -quick               # seconds-long smoke run of every experiment
//	experiments -workers 1           # serial baseline (identical output)
//	experiments -quick -bench-json BENCH.json   # bench regression snapshot
//	experiments -quick -bench-check BENCH.json  # fail if throughput drifted
//	experiments -quick -metrics      # engine counters to stderr, Prometheus text
//
// Stderr diagnostics are gated by a leveled logger: -log-level=error
// silences the timing summary, -log-format=json makes progress lines
// machine-readable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"time"

	"demandrace/internal/experiments"
	"demandrace/internal/obs"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/parallel"
	"demandrace/internal/stats"
	"demandrace/internal/version"
)

type tabler interface{ Table() *stats.Table }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments, rendering tables to out and the
// timing/throughput summary to diag. Keeping the two streams separate is
// what lets `-workers N` output be byte-compared against `-workers 1`.
func run(args []string, out, diag io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: scorecard|tab1|fig1|fig2|fig3|fig4|fig5|fig6|fig7|tab3|tab4|tab5|tab6|all")
		threads  = fs.Int("threads", 4, "worker thread count")
		scale    = fs.Int("scale", 1, "workload scale factor")
		csv      = fs.Bool("csv", false, "emit CSV instead of text tables")
		workers  = fs.Int("workers", 0, "parallel simulation runs (0 = one per CPU, 1 = serial)")
		quick    = fs.Bool("quick", false, "smoke mode: trimmed kernels and seeds, runs in seconds")
		timing   = fs.Bool("timing", true, "print wall-clock/throughput stats to stderr")
		benchF   = fs.String("bench-json", "", "write per-experiment wall time and throughput to this JSON file")
		checkF   = fs.String("bench-check", "", "compare throughput against this baseline bench JSON; exit nonzero when outside the tolerance band")
		checkTol = fs.Float64("bench-tol", 0.30, "relative runs-per-second tolerance for -bench-check (0.30 = ±30%)")
		diffF    = fs.String("bench-diff", "", "also write the -bench-check diff table to this file (for CI artifacts)")
		repeat   = fs.Int("bench-repeat", 1, "repeat the suite N times and keep each experiment's best throughput (noise only slows runs down, so best-of-N filters machine contention)")
		metrics  = fs.Bool("metrics", false, "print per-experiment engine counters to stderr as a Prometheus-style exposition")
		verFlag  = fs.Bool("version", false, "print the version and exit")
	)
	logFlags := olog.Register(fs, olog.FormatText)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verFlag {
		fmt.Fprintln(out, version.String("experiments"))
		return nil
	}
	lg, err := logFlags.Logger(diag)
	if err != nil {
		return err
	}
	// All stderr diagnostics flow through the logger's level gate, so
	// -log-level=error leaves the stream silent for scripted callers.
	if !lg.Enabled(context.Background(), slog.LevelInfo) {
		diag = io.Discard
	}
	eng := parallel.New(*workers)
	o := experiments.Options{
		Threads: *threads,
		Scale:   *scale,
		Workers: *workers,
		Quick:   *quick,
		Engine:  eng,
	}

	runners := map[string]func(experiments.Options) (tabler, error){
		"tab1":      func(o experiments.Options) (tabler, error) { return experiments.Tab1(o) },
		"fig1":      func(o experiments.Options) (tabler, error) { return experiments.Fig1(o) },
		"fig2":      func(o experiments.Options) (tabler, error) { return experiments.Fig2(o) },
		"fig3":      func(o experiments.Options) (tabler, error) { return experiments.Fig3(o) },
		"fig4":      func(o experiments.Options) (tabler, error) { return experiments.Fig4(o) },
		"fig5":      func(o experiments.Options) (tabler, error) { return experiments.Fig5(o) },
		"fig6":      func(o experiments.Options) (tabler, error) { return experiments.Fig6(o) },
		"tab3":      func(o experiments.Options) (tabler, error) { return experiments.Tab3(o) },
		"tab4":      func(o experiments.Options) (tabler, error) { return experiments.Tab4(o) },
		"tab5":      func(o experiments.Options) (tabler, error) { return experiments.Tab5(o) },
		"fig7":      func(o experiments.Options) (tabler, error) { return experiments.Fig7(o) },
		"tab6":      func(o experiments.Options) (tabler, error) { return experiments.Tab6(o) },
		"scorecard": func(o experiments.Options) (tabler, error) { return experiments.Scorecard(o) },
	}
	order := []string{"scorecard", "tab1", "fig1", "fig2", "fig3", "fig4", "tab3", "fig5", "fig6", "fig7", "tab4", "tab5", "tab6"}

	var names []string
	if *exp == "all" {
		names = order
	} else if _, ok := runners[*exp]; ok {
		names = []string{*exp}
	} else {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	runSuite := func(tables io.Writer) ([]parallel.TimingRow, parallel.Stats, time.Duration, error) {
		var rows []parallel.TimingRow
		repStart := eng.Stats()
		suiteStart := time.Now()
		for _, name := range names {
			prev := eng.Stats()
			expStart := time.Now()
			res, err := runners[name](o)
			if err != nil {
				return nil, parallel.Stats{}, 0, fmt.Errorf("%s: %w", name, err)
			}
			rows = append(rows, parallel.TimingRow{
				Name: name, Wall: time.Since(expStart), Delta: eng.Stats().Sub(prev),
			})
			tb := res.Table()
			if *csv {
				fmt.Fprint(tables, tb.CSV())
			} else {
				fmt.Fprintln(tables, tb)
			}
		}
		return rows, eng.Stats().Sub(repStart), time.Since(suiteStart), nil
	}

	rows, total, suiteWall, err := runSuite(out)
	if err != nil {
		return err
	}
	// Extra repetitions are timing-only: their tables are byte-identical to
	// the first pass (determinism contract), so they are discarded, and each
	// experiment keeps its best-throughput repetition.
	for rep := 1; rep < *repeat; rep++ {
		again, reTotal, reWall, err := runSuite(io.Discard)
		if err != nil {
			return err
		}
		for i := range rows {
			if again[i].Delta.Throughput() > rows[i].Delta.Throughput() {
				rows[i] = again[i]
			}
		}
		if reWall < suiteWall {
			total, suiteWall = reTotal, reWall
		}
		lg.Debug("bench repetition done", "rep", rep+1, "wall_ms", reWall.Milliseconds())
	}

	if *timing {
		fmt.Fprintln(diag, parallel.TimingTable(eng.Workers(), rows, total, suiteWall))
	}
	if *metrics {
		// Wall-clock-derived engine counters are diagnostics: they go to
		// diag only, through their own registry, never the comparable
		// stdout stream.
		reg := obs.NewRegistry()
		for _, r := range rows {
			r.Delta.Publish(reg, r.Name)
		}
		total.Publish(reg, "suite")
		if err := reg.WriteProm(diag); err != nil {
			return err
		}
	}
	if *benchF != "" || *checkF != "" {
		doc := benchSnapshot(eng.Workers(), *threads, *scale, *quick, rows, total, suiteWall)
		if *benchF != "" {
			if err := writeBenchJSON(*benchF, doc); err != nil {
				return err
			}
			lg.Info("bench snapshot written", "path", *benchF)
		}
		if *checkF != "" {
			// The diff table always lands on diag; -bench-diff tees it into a
			// file so CI can upload it as an artifact even when the check
			// fails (the file is written before the violation error returns).
			checkOut := diag
			if *diffF != "" {
				f, err := os.Create(*diffF)
				if err != nil {
					return err
				}
				defer f.Close()
				checkOut = io.MultiWriter(diag, f)
			}
			if err := checkBench(checkOut, *checkF, doc, *checkTol); err != nil {
				return err
			}
			lg.Info("bench check passed", "baseline", *checkF, "tolerance", *checkTol)
		}
	}
	return nil
}

// benchEntry is one experiment's timing in the bench-regression snapshot.
type benchEntry struct {
	Name       string  `json:"name"`
	Runs       int     `json:"runs"`
	BusyNS     int64   `json:"busy_ns"`
	WallNS     int64   `json:"wall_ns"`
	Speedup    float64 `json:"speedup"`
	RunsPerSec float64 `json:"runs_per_sec"`
}

// benchDoc is the -bench-json file layout: enough metadata to tell whether
// two snapshots are comparable, then one entry per experiment plus a total.
type benchDoc struct {
	Schema      int          `json:"schema"`
	Workers     int          `json:"workers"`
	Threads     int          `json:"threads"`
	Scale       int          `json:"scale"`
	Quick       bool         `json:"quick"`
	Experiments []benchEntry `json:"experiments"`
	Total       benchEntry   `json:"total"`
}

// buildBenchDoc assembles the bench snapshot from the suite's timing rows.
// The numbers are wall-clock-derived by nature — the document is a bench
// artifact, not a deterministic export, and lives outside the stdout
// byte-equality contract.
func buildBenchDoc(workers, threads, scale int, quick bool,
	rows []parallel.TimingRow, total parallel.Stats, suiteWall time.Duration) benchDoc {
	doc := benchDoc{Schema: 1, Workers: workers, Threads: threads, Scale: scale, Quick: quick}
	for _, r := range rows {
		doc.Experiments = append(doc.Experiments, benchEntry{
			Name:       r.Name,
			Runs:       r.Delta.Jobs,
			BusyNS:     int64(r.Delta.Busy),
			WallNS:     int64(r.Wall),
			Speedup:    r.Delta.Speedup(),
			RunsPerSec: r.Delta.Throughput(),
		})
	}
	doc.Total = benchEntry{
		Name:   "total",
		Runs:   total.Jobs,
		BusyNS: int64(total.Busy),
		WallNS: int64(suiteWall),
	}
	if suiteWall > 0 {
		doc.Total.Speedup = float64(total.Busy) / float64(suiteWall)
		doc.Total.RunsPerSec = float64(total.Jobs) / suiteWall.Seconds()
	}
	return doc
}

// benchSnapshot is the snapshot source -bench-json and -bench-check use.
// Tests replace it with fixed throughputs, so the ±tol gate is checked on
// known numbers instead of wall-clock samples.
var benchSnapshot = buildBenchDoc

// writeBenchJSON saves the snapshot with stable indentation.
func writeBenchJSON(path string, doc benchDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// loadBenchDoc reads a previously written -bench-json snapshot.
func loadBenchDoc(path string) (benchDoc, error) {
	var doc benchDoc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return doc, nil
}

// checkBench compares the current run's throughput against a committed
// baseline. Each experiment's runs_per_sec must land within ±tol of the
// baseline's; a readable diff table always goes to diag, and violations
// are summarized in the returned error so CI logs stay useful even when
// stderr is filtered.
func checkBench(diag io.Writer, baselinePath string, cur benchDoc, tol float64) error {
	base, err := loadBenchDoc(baselinePath)
	if err != nil {
		return err
	}
	if base.Workers != cur.Workers || base.Threads != cur.Threads ||
		base.Scale != cur.Scale || base.Quick != cur.Quick {
		return fmt.Errorf("bench-check: baseline %s (workers=%d threads=%d scale=%d quick=%v) is not comparable to this run (workers=%d threads=%d scale=%d quick=%v)",
			baselinePath, base.Workers, base.Threads, base.Scale, base.Quick,
			cur.Workers, cur.Threads, cur.Scale, cur.Quick)
	}
	baseByName := make(map[string]benchEntry, len(base.Experiments))
	for _, e := range base.Experiments {
		baseByName[e.Name] = e
	}

	tb := stats.NewTable(
		fmt.Sprintf("bench check vs %s (tolerance ±%.0f%%)", baselinePath, 100*tol),
		"experiment", "baseline runs/s", "current runs/s", "delta", "status")
	var violations []string
	compare := func(name string, b, c benchEntry) {
		if b.RunsPerSec <= 0 {
			tb.AddRow(name, "-", fmt.Sprintf("%.1f", c.RunsPerSec), "-", "skipped (no baseline rate)")
			return
		}
		delta := c.RunsPerSec/b.RunsPerSec - 1
		status := "ok"
		if math.Abs(delta) > tol {
			if delta < 0 {
				status = "SLOW"
			} else {
				status = "FAST"
			}
			violations = append(violations,
				fmt.Sprintf("%s: %.1f -> %.1f runs/s (%+.0f%%)", name, b.RunsPerSec, c.RunsPerSec, 100*delta))
		}
		tb.AddRow(name,
			fmt.Sprintf("%.1f", b.RunsPerSec),
			fmt.Sprintf("%.1f", c.RunsPerSec),
			fmt.Sprintf("%+.0f%%", 100*delta),
			status)
	}
	for _, c := range cur.Experiments {
		b, ok := baseByName[c.Name]
		if !ok {
			tb.AddRow(c.Name, "-", fmt.Sprintf("%.1f", c.RunsPerSec), "-", "new (not in baseline)")
			continue
		}
		compare(c.Name, b, c)
	}
	compare("total", base.Total, cur.Total)
	fmt.Fprintln(diag, tb)

	if len(violations) > 0 {
		return fmt.Errorf("bench-check: %d experiment(s) outside the ±%.0f%% band:\n  %s",
			len(violations), 100*tol, joinLines(violations))
	}
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}

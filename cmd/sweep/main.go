// Command sweep runs arbitrary design-space sweeps on the parallel sweep
// engine: the cross product of workloads, schedulers and CMP configurations,
// simulated concurrently with deterministic output ordering and an optional
// on-disk result cache.
//
// Usage:
//
//	sweep -list                                         # discover every axis value
//	sweep -workloads mergesort,hashjoin                 # PDF vs WS, Table 2
//	sweep -workloads bfs,sssp,pagerank,triangles        # irregular graph kernels
//	sweep -workloads connectivity,kcore,mis,matching    # GBBS-parity suite
//	sweep -workloads bfs -graph-repr compressed         # byte-compressed CSR host storage
//	sweep -tables 45nm -cores 2,8,18,26 -quick          # a Figure 3 slice
//	sweep -topology shared,private,clustered:4 -quick   # cache-topology axis
//	sweep -schedulers pdf,ws,ws:nearest,sb -quick       # scheduler-registry axis
//	sweep -workloads lu -seq -format csv -o lu.csv      # with speedup baseline
//	sweep -cache-dir .sweep-cache -workloads mergesort  # re-runs are instant
//
// -list reflects the live registries: workloads and schedulers registered
// at run time (including parameterised spellings such as "ws:nearest")
// appear in deterministically sorted order.
//
// Workload inputs are sized exactly as the experiment harness sizes them
// (internal/experiments), so sweep points are comparable to figure points;
// results stream to a summary table, CSV or JSON as they complete.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"time"

	"cmpsched/internal/experiments"
	"cmpsched/internal/obs"
	"cmpsched/internal/pprofio"
	"cmpsched/internal/stats"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepcli"
)

func main() {
	grid := sweepcli.Bind(flag.CommandLine)
	var (
		list       = flag.Bool("list", false, "print the available workloads, schedulers, topologies and configuration tables, then exit")
		workers    = flag.Int("workers", 0, "max concurrent simulations (0 = one per host CPU, 1 = serial)")
		cacheDir   = flag.String("cache-dir", "", "directory for the persistent result cache (empty = in-memory only)")
		format     = flag.String("format", "table", "output format: table, csv or json")
		out        = flag.String("o", "", "output file (empty = stdout)")
		verbose    = flag.Bool("v", false, "log each completed job and print the metrics snapshot as a sorted key=value table at exit")
		progress   = flag.Bool("progress", false, "show a live progress line on stderr (done/total, cache hits, ETA)")
		metricsOut = flag.String("metrics-json", "", "write an expvar-style JSON metrics snapshot to this file at exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		sweepcli.PrintList(os.Stdout)
		return
	}

	flush, err := pprofio.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	flushProfiles = flush
	defer flushProfiles()

	switch *format {
	case "table", "csv", "json":
	default:
		fatalf("unknown format %q (want table, csv or json)", *format)
	}

	spec, err := grid.Spec()
	if err != nil {
		fatalf("%v", err)
	}
	spec.Factory = experiments.Options{Scale: spec.Scale, Quick: spec.Quick, GraphRepr: spec.GraphRepr}.WorkloadFactory()
	jobs, err := spec.Jobs()
	if err != nil {
		fatalf("%v", err)
	}

	var cache sweep.Cache
	if *cacheDir != "" {
		if cache, err = sweep.NewDiskCache(*cacheDir); err != nil {
			fatalf("%v", err)
		}
	}
	var reg *obs.Registry
	if *verbose || *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	engine := sweep.NewEngine(sweep.EngineOptions{Workers: *workers, Cache: cache, Metrics: reg})

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}

	// The summary aggregation and progress log stream as jobs complete;
	// the exported output is always written from the ordered result slice
	// so it is deterministic regardless of worker count.
	agg := sweep.NewAggregator()
	done := 0
	start := time.Now()
	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress(os.Stderr, "sweep", len(jobs))
	}
	onResult := func(i int, r sweep.Result) {
		agg.Add(r)
		done++
		if *verbose {
			fmt.Fprintf(os.Stderr, "sweep: %s\n", sweepcli.RowLine(done, len(jobs), r))
		}
		prog.Step(r.Cached)
	}
	// Ctrl-C stops admitting new jobs but flushes every completed row: the
	// exporters below run on the partial result slice (they skip unfilled
	// rows), so an interrupted overnight sweep still yields its finished
	// points.  A second interrupt kills the process immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	interrupted := false
	results, err := engine.RunStreamContext(ctx, jobs, onResult)
	prog.Finish()
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			fatalf("%v", err)
		}
		interrupted = true
		fmt.Fprintf(os.Stderr, "sweep: interrupted; writing the %d completed rows\n", done)
	}
	elapsed := time.Since(start)

	switch *format {
	case "csv":
		if err := sweep.WriteCSV(w, results); err != nil {
			fatalf("write csv: %v", err)
		}
	case "json":
		if err := sweep.WriteJSON(w, results); err != nil {
			fatalf("write json: %v", err)
		}
	case "table":
		printTables(w, results)
	}

	if *verbose || *format == "table" {
		printSummary(os.Stderr, agg, engine, cache, len(jobs), elapsed)
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, "\nmetrics:")
		if err := reg.WriteTable(os.Stderr); err != nil {
			fatalf("write metrics: %v", err)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			fatalf("write metrics json: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
	if interrupted {
		flushProfiles()
		os.Exit(130)
	}
}

// printTables renders every result as one aligned row.
func printTables(w *os.File, results []sweep.Result) {
	t := stats.NewTable("workload", "sched", "config", "topology", "cores", "cycles", "L2 misses/Ki", "mem util %", "cached")
	for _, r := range results {
		t.AddRow(
			r.Key.Workload, r.Key.Scheduler, r.Sim.Config.Name,
			r.Sim.Config.Topology.String(),
			strconv.Itoa(r.Sim.Config.Cores),
			strconv.FormatInt(r.Sim.Cycles, 10),
			fmt.Sprintf("%.3f", r.Sim.L2MissesPerKiloInstr()),
			fmt.Sprintf("%.1f", r.Sim.MemUtilization*100),
			strconv.FormatBool(r.Cached),
		)
	}
	fmt.Fprint(w, t.String())
}

// printSummary reports the per-series aggregate and engine statistics.
func printSummary(w *os.File, agg *sweep.Aggregator, engine *sweep.Engine, cache sweep.Cache, jobs int, elapsed time.Duration) {
	t := stats.NewTable("workload", "sched", "runs", "cache hits", "best config", "best cycles", "mean mem util %")
	for _, row := range agg.Rows() {
		t.AddRow(
			row.Workload, row.Scheduler,
			strconv.Itoa(row.Runs), strconv.Itoa(row.CacheHits),
			row.BestConfig, strconv.FormatInt(row.BestCycles, 10),
			fmt.Sprintf("%.1f", row.MeanMemUtil*100),
		)
	}
	fmt.Fprintf(w, "\n%s", t.String())
	fmt.Fprintf(w, "%d jobs on %d workers in %.2fs", jobs, engine.Workers(), elapsed.Seconds())
	if cache != nil {
		hits, misses := cache.Stats()
		fmt.Fprintf(w, "; cache: %d hits, %d misses", hits, misses)
	}
	fmt.Fprintln(w)
}

// flushProfiles is pprofio.Start's idempotent flush; fatalf must run it
// before os.Exit (which skips defers) so failed sweeps still leave
// parseable profiles.
var flushProfiles = func() {}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	flushProfiles()
	os.Exit(1)
}

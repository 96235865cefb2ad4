package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"cmpsched/internal/obs"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
)

// workers is the sweep concurrency of every workload: the benchmark host's
// two vCPUs.
const workers = 2

// tally counts operations: jobs, passes and rows.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// coldSample is one cold pass over a grid.
type coldSample struct {
	wall    time.Duration
	setup   float64 // seconds inside Build
	refs    int64
	elapsed time.Duration // sum of Result.Elapsed
	rssMB   float64       // resident set the finished pass retains
	// DAG templates the engine built, and jobs it served from one.
	dagBuilds, dagShared int64
}

func (c coldSample) refsPerSec() float64 {
	return float64(c.refs) / (c.elapsed.Seconds() - c.setup)
}

// warmSamples collects the warm passes of a run.
type warmSamples struct {
	pass, firstRow []float64 // milliseconds
	bytes          int64     // NDJSON stream bytes read
}

// runEnv is what one benchmark run knows about its workload.
type runEnv struct {
	name    string
	seed    uint64
	dir     string // scratch directory inside the checkout
	seconds time.Duration
	jobs    []sweep.Job
	points  []sweepsvc.Point
	digests []string // per-job digests expected, nil until known
}

func newRunEnv(name string, seed uint64, dir string, seconds time.Duration) (*runEnv, error) {
	jobs, points, err := gridJobs(name, seed, false)
	if err != nil {
		return nil, err
	}
	return &runEnv{name: name, seed: seed, dir: dir, seconds: seconds, jobs: jobs, points: points}, nil
}

// pinned reports the digest a grid must reproduce, if this run has one.
func (e *runEnv) pinned() (string, bool) {
	d := pinnedDigests[e.name]
	if d == "" || (e.seed != defaultSeed && e.name != wlSweepdGrid) {
		return "", false
	}
	return d, true
}

// check verifies one pass's results job for job: against the pinned grid
// digest where there is one, and against the run's first pass always.  It
// returns the per-job verdicts.
func (e *runEnv) check(results []*sweep.Result) []bool {
	got := make([]string, len(e.jobs))
	for i := range e.jobs {
		if results[i] != nil && results[i].Sim != nil {
			got[i] = jobDigest(e.jobs[i].Key, results[i].Sim)
		}
	}
	ok := make([]bool, len(got))
	if e.digests == nil {
		e.digests = got
		pinOK := true
		if want, has := e.pinned(); has && gridDigest(got) != want {
			pinOK = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: grid digest %s, pinned %s\n", e.name, gridDigest(got), want)
		}
		for i, d := range got {
			ok[i] = pinOK && d != ""
		}
		if !pinOK {
			e.digests = make([]string, len(got)) // nothing matches a failed grid
		}
		return ok
	}
	for i, d := range got {
		ok[i] = d != "" && d == e.digests[i]
	}
	return ok
}

func ptrs(rs []sweep.Result) []*sweep.Result {
	out := make([]*sweep.Result, len(rs))
	for i := range rs {
		if rs[i].Sim != nil {
			out[i] = &rs[i]
		}
	}
	return out
}

// coldEngine runs a figure grid through sweep.Engine.Run with two workers
// and no result cache; every simulated cache starts empty.
func (e *runEnv) coldEngine() (coldSample, []sweep.Result, error) {
	var bt buildTimer
	jobs := bt.wrap(e.jobs)
	reg := obs.NewRegistry()
	eng := sweep.NewEngine(sweep.EngineOptions{Workers: workers, Metrics: reg})
	start := time.Now()
	results, err := eng.Run(jobs)
	s := sampleFromRows(time.Since(start), bt.seconds(), ptrs(results))
	s.dagBuilds, s.dagShared = engineCounts(reg)
	if err != nil {
		return s, results, err
	}
	s.rssMB, err = retainedRSSMB()
	runtime.KeepAlive(eng) // its DAG templates and trace arenas count
	return s, results, err
}

// engineCounts reads the sweep engine's template counters from its
// registry.
func engineCounts(reg *obs.Registry) (builds, shared int64) {
	for _, x := range reg.Snapshot() {
		switch x.Name {
		case "sweep.dag_builds":
			builds = x.Value
		case "sweep.dag_rebuilds_avoided":
			shared = x.Value
		}
	}
	return builds, shared
}

// sampleFromRows computes a cold sample from streamed rows.
func sampleFromRows(wall time.Duration, setup float64, rows []*sweep.Result) coldSample {
	s := coldSample{wall: wall, setup: setup}
	for _, r := range rows {
		if r != nil && r.Sim != nil {
			s.refs += r.Sim.Refs
			s.elapsed += r.Elapsed
		}
	}
	return s
}

// figureExpand is the Expand seam for a figure grid served by sweepd: point
// i of the submission is job i of the figure (the wire cannot name a graph
// family, so the seam supplies the jobs).
func (e *runEnv) figureExpand(r *sweepsvc.Request) ([]sweep.Job, error) {
	if len(r.Points) != len(e.jobs) {
		return nil, fmt.Errorf("want %d points, got %d", len(e.jobs), len(r.Points))
	}
	return e.jobs, nil
}

// warmPasses submits the grid repeatedly, as a closed loop with one client,
// until the deadline; every pass must be served from the cache with rows
// that match the cold pass.
func (e *runEnv) warmPasses(srv *server, body []byte, until time.Time, minPasses int, ops *tally, ws *warmSamples) error {
	for n := 0; n < minPasses || time.Now().Before(until); n++ {
		pr, err := srv.submit(body, len(e.jobs))
		if err != nil {
			ops.add(false)
			return fmt.Errorf("warm pass: %w", err)
		}
		ws.pass = append(ws.pass, ms(pr.total))
		ws.firstRow = append(ws.firstRow, ms(pr.firstRow))
		ws.bytes += pr.bytes
		passOK := pr.errRows == 0
		for i, ok := range e.check(pr.rows) {
			ops.add(ok && pr.rows[i].Cached)
			passOK = passOK && ok
		}
		for i := 0; i < pr.errRows; i++ {
			ops.add(false)
		}
		ops.add(passOK)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// coldCycle makes one cold pass and returns its rows and a service ready to
// serve the grid warm.  Figures run on a fresh engine with no result cache,
// and a fresh DiskCache is then filled from their results; sweepd-grid
// submits to a fresh service over a fresh DiskCache.
func (e *runEnv) coldCycle(cycle int, ops *tally) (coldSample, []*sweep.Result, *server, []byte, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("cache%d", cycle))
	fail := func(srv *server, err error) (coldSample, []*sweep.Result, *server, []byte, error) {
		if srv != nil {
			srv.close()
		}
		return coldSample{}, nil, nil, nil, err
	}
	if e.name == wlSweepdGrid {
		var bt buildTimer
		expand := func(r *sweepsvc.Request) ([]sweep.Job, error) {
			jobs, err := r.Jobs()
			return bt.wrap(jobs), err
		}
		srv, err := startServer(dir, expand)
		if err != nil {
			return fail(nil, err)
		}
		body, err := requestBody(e.points, true)
		if err != nil {
			return fail(srv, err)
		}
		pr, err := srv.submit(body, len(e.jobs))
		if err != nil {
			ops.add(false)
			return fail(srv, fmt.Errorf("cold pass: %w", err))
		}
		s := sampleFromRows(pr.total, bt.seconds(), pr.rows)
		s.dagBuilds, s.dagShared = engineCounts(srv.reg)
		for _, ok := range e.check(pr.rows) {
			ops.add(ok)
		}
		for i := 0; i < pr.errRows; i++ {
			ops.add(false)
		}
		if s.rssMB, err = retainedRSSMB(); err != nil {
			return fail(srv, err)
		}
		return s, pr.rows, srv, body, nil
	}

	s, results, err := e.coldEngine()
	rows := ptrs(results)
	for _, ok := range e.check(rows) {
		ops.add(ok)
	}
	if err != nil {
		return fail(nil, fmt.Errorf("cold grid: %w", err))
	}
	srv, err := startServer(dir, e.figureExpand)
	if err != nil {
		return fail(nil, err)
	}
	for _, r := range results {
		if err := srv.cache.Put(sweep.Entry{Key: r.Key, Sim: r.Sim, Derived: r.Derived}); err != nil {
			return fail(srv, err)
		}
	}
	body, err := requestBody(e.points, false)
	if err != nil {
		return fail(srv, err)
	}
	// Return the cold grid's garbage to the kernel now, so neither the
	// collector nor the scavenger works on it during the warm passes.
	debug.FreeOSMemory()
	return s, rows, srv, body, nil
}

// runE2E is one untraced run: cycles of one cold pass followed by warm
// passes for an eighth of the cold pass's time, while another cycle is
// expected to end within half a cycle of the deadline.
func runE2E(e *runEnv) (map[string]metric, tally, error) {
	var ops tally
	var cold []coldSample
	var cycles []float64
	var ws warmSamples
	deadline := time.Now().Add(e.seconds)
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, ops, err
	}
	defer os.RemoveAll(e.dir)
	for len(cycles) == 0 || time.Now().Add(time.Duration(median(cycles)/2)).Before(deadline) {
		start := time.Now()
		s, _, srv, body, err := e.coldCycle(len(cycles), &ops)
		if err != nil {
			return nil, ops, err
		}
		err = e.warmPasses(srv, body, time.Now().Add(s.wall/8), 3, &ops, &ws)
		if cerr := srv.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, ops, err
		}
		cold = append(cold, s)
		cycles = append(cycles, float64(time.Since(start)))
	}

	walls := make([]float64, len(cold))
	rates := make([]float64, len(cold))
	setups := make([]float64, len(cold))
	rss := make([]float64, len(cold))
	for i, s := range cold {
		walls[i], rates[i], setups[i], rss[i] = s.wall.Seconds(), s.refsPerSec(), s.setup, s.rssMB
	}
	m := map[string]metric{
		"wall_s":                {median(walls), "s"},
		"sim_refs_per_s":        {median(rates), "1/s"},
		"setup_s":               {median(setups), "s"},
		"retained_rss_mb":       {median(rss), "MB"},
		"warm_pass_ms.p50":      {quantile(ws.pass, 0.5), "ms"},
		"warm_first_row_ms.p50": {quantile(ws.firstRow, 0.5), "ms"},
	}
	fmt.Printf("%s seed %d: %d cold passes, %d warm passes\n", e.name, e.seed, len(cold), len(ws.pass))
	return m, ops, nil
}

// retainedRSSMB returns the resident set after a full collection that
// returns every free page to the kernel: what the live heap (a finished
// grid's engine, templates and results) holds.  Peak RSS varies run to run
// by a fifth with the collector's pacing; this does not.
func retainedRSSMB() (float64, error) {
	debug.FreeOSMemory()
	return procStatusMB("VmRSS:")
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile; zero for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

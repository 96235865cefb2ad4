package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cmpsched/internal/cache"
	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/experiments"
	"cmpsched/internal/obs"
	"cmpsched/internal/sched"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// recordingCache misses every Get, recording the keys in the order the
// engine asks for them, and keeps every Put.
type recordingCache struct {
	mu   sync.Mutex
	keys []sweep.Key
	puts map[sweep.Key]*cmpsim.Result
}

func (c *recordingCache) Get(k sweep.Key) (sweep.Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, k)
	return sweep.Entry{}, false
}

func (c *recordingCache) Put(e sweep.Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts[e.Key] = e.Sim
	return nil
}

func (c *recordingCache) Stats() (int64, int64) { return 0, int64(len(c.keys)) }

func newRecordingCache() *recordingCache {
	return &recordingCache{puts: map[sweep.Key]*cmpsim.Result{}}
}

// runQuickGrid runs a benchmark grid at quick scale on two workers.
func runQuickGrid(t *testing.T, name string, seed uint64) ([]sweep.Job, []sweep.Result) {
	t.Helper()
	jobs, _, err := gridJobs(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.NewEngine(sweep.EngineOptions{Workers: workers}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, results
}

// checkSameJobs asserts the benchmark grid asks for exactly the keys the
// experiment asked for, in the same order, and gets the same results.
func checkSameJobs(t *testing.T, rec *recordingCache, jobs []sweep.Job, results []sweep.Result) {
	t.Helper()
	if len(rec.keys) != len(jobs) {
		t.Fatalf("experiment ran %d jobs, benchmark grid has %d", len(rec.keys), len(jobs))
	}
	for i, j := range jobs {
		if j.Key != rec.keys[i] {
			t.Fatalf("job %d: key %+v, experiment has %+v", i, j.Key, rec.keys[i])
		}
		want := rec.puts[j.Key]
		if want == nil || jobDigest(j.Key, results[i].Sim) != jobDigest(j.Key, want) {
			t.Fatalf("job %d (%s): result differs from the experiment's", i, j.Key)
		}
	}
}

func TestPaperFig2MatchesFigure2(t *testing.T) {
	rec := newRecordingCache()
	fig, err := experiments.Figure2(experiments.Options{Quick: true, Workers: 1, Cache: rec})
	if err != nil {
		t.Fatal(err)
	}
	jobs, results := runQuickGrid(t, wlPaperFig2, defaultSeed)
	checkSameJobs(t, rec, jobs, results)
	// Rows: (seq, pdf, ws) per workload and core count.
	for i := 0; i < len(jobs); i += 3 {
		seq := results[i].Sim
		for k, sc := range []string{"pdf", "ws"} {
			sim := results[i+1+k].Sim
			row := fig.Row(jobs[i].Key.Workload, jobs[i].Config.Cores, sc)
			if row == nil || row.Cycles != sim.Cycles || row.Speedup != sim.Speedup(seq) ||
				row.L2MissesPerKiloInstr != sim.L2MissesPerKiloInstr() || row.MemUtilization != sim.MemUtilization {
				t.Fatalf("%s/%d/%s: row %+v does not match the benchmark's result", jobs[i].Key.Workload, jobs[i].Config.Cores, sc, row)
			}
		}
	}
}

func TestGraphIrregularMatchesIrregularComparison(t *testing.T) {
	rec := newRecordingCache()
	fig, err := experiments.IrregularComparison(experiments.Options{Quick: true, Workers: 1, Cache: rec})
	if err != nil {
		t.Fatal(err)
	}
	jobs, results := runQuickGrid(t, wlGraphIrregular, defaultSeed)
	checkSameJobs(t, rec, jobs, results)
	families := experiments.IrregularFamilies()
	for i, j := range jobs {
		// Job order: kernel, family, topology, then pdf and ws.
		family := families[(i/4)%len(families)]
		sim := results[i].Sim
		row := fig.Row(j.Key.Workload, family, j.Config.Cores, j.Config.Topology.String(), j.Scheduler)
		if row == nil || row.Cycles != sim.Cycles || row.L2MissesPerKiloInstr != sim.L2MissesPerKiloInstr() || row.MemUtilization != sim.MemUtilization {
			t.Fatalf("job %d (%s on %s): row %+v does not match the benchmark's result", i, j.Key, family, row)
		}
	}
}

// keyCache answers every Get with an empty hit, so an experiment "runs" its
// full-scale grid instantly and reveals the keys it would simulate.
type keyCache struct {
	mu   sync.Mutex
	keys []sweep.Key
}

func (c *keyCache) Get(k sweep.Key) (sweep.Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, k)
	return sweep.Entry{Key: k, Sim: &cmpsim.Result{}}, true
}

func (c *keyCache) Put(sweep.Entry) error { return nil }
func (c *keyCache) Stats() (int64, int64) { return int64(len(c.keys)), 0 }

// TestFullScaleKeysMatchExperiments pins the full-scale grids the benchmark
// times, which quick scale cannot fully show (it floors graph sizes).
func TestFullScaleKeysMatchExperiments(t *testing.T) {
	for name, run := range map[string]func(experiments.Options) error{
		wlPaperFig2: func(o experiments.Options) error { _, err := experiments.Figure2(o); return err },
		wlGraphIrregular: func(o experiments.Options) error {
			_, err := experiments.IrregularComparison(o)
			return err
		},
	} {
		c := &keyCache{}
		if err := run(experiments.Options{Workers: 1, Cache: c}); err != nil {
			t.Fatal(err)
		}
		jobs, _, err := gridJobs(name, defaultSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != len(c.keys) {
			t.Fatalf("%s: %d jobs, experiment has %d", name, len(jobs), len(c.keys))
		}
		for i, j := range jobs {
			if j.Key != c.keys[i] {
				t.Fatalf("%s job %d: key %+v, experiment has %+v", name, i, j.Key, c.keys[i])
			}
		}
	}
}

// TestSeedChangesFigureInputs guards the seed plumbing: a non-default seed
// must reach the Hash Join and graph inputs and nothing else.
func TestSeedChangesFigureInputs(t *testing.T) {
	for _, name := range []string{wlPaperFig2, wlGraphIrregular} {
		a, _, err := gridJobs(name, defaultSeed, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := gridJobs(name, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			changed := a[i].Key != b[i].Key
			if want := a[i].Key.Workload != "mergesort" && a[i].Key.Workload != "lu"; changed != want {
				t.Errorf("%s job %d (%s): key changed with the seed: %v, want %v", name, i, a[i].Key, changed, want)
			}
		}
	}
}

// TestSweepdGridShuffleKeepsJobs checks the seed only reorders the sweepd
// grid, which is why its pinned digest holds at every seed.
func TestSweepdGridShuffleKeepsJobs(t *testing.T) {
	a, _, err := gridJobs(wlSweepdGrid, defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := gridJobs(wlSweepdGrid, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 120 || len(b) != 120 {
		t.Fatalf("grid sizes %d and %d, want 120", len(a), len(b))
	}
	seen := map[sweep.Key]int{}
	for _, j := range a {
		seen[j.Key]++
	}
	same := true
	for i, j := range b {
		seen[j.Key]--
		same = same && j.Key == a[i].Key
	}
	for k, n := range seen {
		if n != 0 {
			t.Fatalf("key %s appears %d more times at seed 1 than at seed 7", k, n)
		}
	}
	if same {
		t.Fatal("seed 7 did not shuffle the sweepd grid")
	}
}

// smallDAG builds a quick mergesort whose steals, pins and migrations give
// every scheduler decisions to make.
func smallDAG(t *testing.T) *dag.Snapshot {
	t.Helper()
	d, _, err := workload.NewMergesort(workload.MergesortConfig{Elements: 1 << 14, TaskWorkingSetBytes: 2 << 10}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return dag.Record(d, nil)
}

func quickConfig(t *testing.T, cores int, topo cache.Topology) config.CMP {
	t.Helper()
	cfg, err := scaleOpts{quick: true}.defaultConfig(cores)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.WithTopology(topo)
}

func TestTimedSchedulerIsTransparent(t *testing.T) {
	snap := smallDAG(t)
	for _, name := range sched.Names() {
		for _, topo := range []cache.Topology{cache.Shared(), cache.Private()} {
			cfg := quickConfig(t, 8, topo)
			run := func(wrap bool) (*cmpsim.Result, []byte) {
				s, err := sched.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					s = &timedSched{Scheduler: s}
				}
				opts := cmpsim.DefaultOptions()
				opts.Tracer = obs.NewTracer()
				r, err := cmpsim.RunWithOptions(snap.Instantiate(), s, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := opts.Tracer.WriteChromeTrace(&buf, obs.ChromeTraceConfig{}); err != nil {
					t.Fatal(err)
				}
				return r, buf.Bytes()
			}
			plain, plainTrace := run(false)
			wrapped, wrappedTrace := run(true)
			if !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("%s on %s: wrapped result differs from unwrapped", name, topo)
			}
			if !bytes.Equal(plainTrace, wrappedTrace) {
				t.Errorf("%s on %s: wrapped run traced differently", name, topo)
			}
		}
	}
}

// hookRecorder is a scheduler that records the optional hooks it receives.
type hookRecorder struct {
	sched.Scheduler
	machine *sched.Machine
	tracer  *obs.Tracer
}

func (h *hookRecorder) SetMachine(m sched.Machine) { h.machine = &m }
func (h *hookRecorder) SetTracer(tr *obs.Tracer)   { h.tracer = tr }

func TestTimedSchedulerForwardsHooks(t *testing.T) {
	inner := &hookRecorder{Scheduler: sched.NewPDF()}
	s := &timedSched{Scheduler: inner}
	opts := cmpsim.DefaultOptions()
	opts.Tracer = obs.NewTracer()
	if _, err := cmpsim.RunWithOptions(smallDAG(t).Instantiate(), s, quickConfig(t, 4, cache.Private()), opts); err != nil {
		t.Fatal(err)
	}
	if inner.machine == nil || inner.machine.Cores != 4 || inner.machine.Slices != 4 {
		t.Errorf("SetMachine not forwarded: %+v", inner.machine)
	}
	if inner.tracer != opts.Tracer {
		t.Error("SetTracer not forwarded")
	}
	if s.calls == 0 || s.ns <= 0 {
		t.Errorf("no scheduler time recorded: %d calls, %d ns", s.calls, s.ns)
	}
}

// TestReplayMatchesSequentialRuns replays every sequential-baseline job of
// the paper-fig2 grid, plus BFS, and requires the simulated L1 and L2 hit
// and miss counts exactly; parallel jobs only report their deviation.
func TestReplayMatchesSequentialRuns(t *testing.T) {
	jobs, _, err := gridJobs(wlPaperFig2, defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	build, params, err := scaleOpts{quick: true, seed: defaultSeed}.graphSpec("bfs", "uniform")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(t, 8, cache.Shared())
	jobs = append(jobs, sweep.NewJob("bfs", params, sweep.Sequential, cfg, build), sweep.NewJob("bfs", params, "pdf", cfg, build))
	dr := newSerialRunner(newSpanLog())
	seq := 0
	for i, j := range jobs {
		if _, err := dr.run(i, j); err != nil {
			t.Fatal(err)
		}
		if j.Scheduler == sweep.Sequential {
			seq++
		}
	}
	if dr.lay.seqReplayMismatches != 0 {
		t.Fatalf("%d of %d sequential replays differ from the simulation", dr.lay.seqReplayMismatches, seq)
	}
	dev := 100 * float64(dr.lay.replayL2Dev) / float64(dr.lay.replayL2Base)
	if math.IsNaN(dev) || dr.lay.replayAccesses == 0 {
		t.Fatalf("replay measured nothing: deviation %v%%, %d accesses", dev, dr.lay.replayAccesses)
	}
	t.Logf("parallel L2-miss deviation %.2f%% over %d accesses", dev, dr.lay.replayAccesses)
}

// TestTracedRunAgreesWithEngine runs the traced run on quick grids at a
// non-default seed: the service pass and the untraced and traced serial
// passes must agree job for job, the self times must sum to the wall time,
// and the spans must validate as a Chrome trace.
func TestTracedRunAgreesWithEngine(t *testing.T) {
	for _, name := range []string{wlPaperFig2, wlSweepdGrid} {
		jobs, points, err := gridJobs(name, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		e := &runEnv{name: name, seed: 7, dir: filepath.Join(dir, "run"), seconds: time.Second, jobs: jobs, points: points}
		m, ops, err := runTraced(e, filepath.Join(dir, "traces"))
		if err != nil {
			t.Fatal(err)
		}
		if ops.failed != 0 || ops.attempted == 0 {
			t.Fatalf("%s: %d of %d operations failed", name, ops.failed, ops.attempted)
		}
		for _, k := range []string{"cmpsim.refs", "sched.calls", "cache.replay_ns_per_access", "workload.builds", "sweep.cache_get_s", "sweepsvc.stream_mb"} {
			if m[k].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, k, m[k].Value)
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, "traces", name+"-seed7.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateChromeTrace(data, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	l := newSpanLog()
	job := l.begin("job", 0, -1)
	run := l.begin("cmpsim.run", 0, job)
	time.Sleep(2 * time.Millisecond)
	l.end(run)
	l.aggregate("sched", 0, run, time.Millisecond, 3)
	l.end(job)
	wall := l.rootTime(1) + 5*time.Millisecond
	var buf bytes.Buffer
	if sum := l.writeSelfTable(&buf, wall); sum != wall {
		t.Fatalf("self times sum to %v, want %v\n%s", sum, wall, buf.String())
	}
	self := l.selfTimes(1)
	if self["sched"] != time.Millisecond || self["cmpsim.run"] != l.spans[run].end-l.spans[run].start-time.Millisecond {
		t.Fatalf("self times %v", self)
	}
}

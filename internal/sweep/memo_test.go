package sweep

import (
	"reflect"
	"sync"
	"testing"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
	"cmpsched/internal/sched"
)

// runDirect simulates one job without any sweep machinery — a fresh DAG
// build per run, no memoised templates, no shared trace store — producing
// the result exactly as Engine.runJob would (task stats dropped).
func runDirect(t *testing.T, j Job) *cmpsim.Result {
	t.Helper()
	d, err := j.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", j.Key, err)
	}
	opts := cmpsim.DefaultOptions()
	opts.RecordTaskStats = false
	var r *cmpsim.Result
	if j.Scheduler == Sequential {
		r, err = cmpsim.RunSequentialWithOptions(d, j.Config, opts)
	} else {
		s, err2 := sched.New(j.Scheduler)
		if err2 != nil {
			t.Fatalf("%s: %v", j.Key, err2)
		}
		r, err = cmpsim.RunWithOptions(d, s, j.Config, opts)
	}
	if err != nil {
		t.Fatalf("%s: run: %v", j.Key, err)
	}
	r.TaskStats = nil
	return r
}

// TestSharedTraceStoreByteIdentical pins the memoisation soundness claim: a
// sweep whose jobs share memoised DAGs (and, concurrently, one trace store)
// produces byte-identical simulator results to rebuilding every DAG from
// scratch, at any worker count.  Run under -race this also exercises
// concurrent simulations of one recorded DAG.
func TestSharedTraceStoreByteIdentical(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// The grid shape guarantees sharing: every (workload, cores) pair
	// appears once per scheduler (plus the sequential baseline).
	want := make([]*cmpsim.Result, len(jobs))
	for i := range jobs {
		want[i] = runDirect(t, jobs[i])
	}

	for _, workers := range []int{1, 4, 8} {
		reg := obs.NewRegistry()
		e := NewEngine(EngineOptions{Workers: workers, Metrics: reg})
		results, err := e.Run(jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if !reflect.DeepEqual(r.Sim, want[i]) {
				t.Fatalf("workers=%d: job %d (%s) differs from unshared rebuild:\nshared:   %+v\nrebuilt: %+v",
					workers, i, jobs[i].Key, r.Sim, want[i])
			}
		}
		// The grid has len(jobs) jobs over fewer distinct templates; the
		// difference must show up as avoided rebuilds, and the shared store
		// must have interned every recorded task exactly once per template.
		builds := reg.ShardedCounter("sweep.dag_builds", 1).Value()
		avoided := reg.ShardedCounter("sweep.dag_rebuilds_avoided", 1).Value()
		if builds == 0 || avoided == 0 || builds+avoided != int64(len(jobs)) {
			t.Fatalf("workers=%d: builds=%d avoided=%d, want both positive summing to %d",
				workers, builds, avoided, len(jobs))
		}
		if interned := reg.Gauge("sweep.trace.interned").Value(); interned == 0 {
			t.Fatalf("workers=%d: no traces interned", workers)
		}
		if arena := reg.Gauge("sweep.trace.arena_bytes").Value(); arena <= 0 {
			t.Fatalf("workers=%d: arena bytes = %d", workers, arena)
		}
	}
}

// TestMemoizedBuildRunsOncePerTemplate pins the single-flight contract: the
// engine calls Build once per (workload, params, config) triple no matter
// how many schedulers fan out from it or how many workers race, and every
// job of the triple simulates the very DAG that one Build returned.
func TestMemoizedBuildRunsOncePerTemplate(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	built := make(map[string][]*dag.DAG)     // template -> DAGs Build returned
	simulated := make(map[string][]*dag.DAG) // template -> DAG each job ran
	for i := range jobs {
		key := templateKey(jobs[i].Key)
		build := jobs[i].Build
		jobs[i].Build = func() (*dag.DAG, error) {
			d, err := build()
			mu.Lock()
			built[key] = append(built[key], d)
			mu.Unlock()
			return d, err
		}
		jobs[i] = jobs[i].WithDerive("dag", func(d *dag.DAG, _ *cmpsim.Result) (map[string]int64, error) {
			mu.Lock()
			simulated[key] = append(simulated[key], d)
			mu.Unlock()
			return nil, nil
		})
	}
	reg := obs.NewRegistry()
	e := NewEngine(EngineOptions{Workers: 8, Metrics: reg})
	if _, err := e.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if builds := reg.ShardedCounter("sweep.dag_builds", 1).Value(); builds != int64(len(built)) {
		t.Fatalf("builds = %d, want one per template = %d", builds, len(built))
	}
	runs := 0
	for key, ds := range simulated {
		if len(built[key]) != 1 {
			t.Fatalf("template %q built %d times, want once", key, len(built[key]))
		}
		for _, d := range ds {
			if d != built[key][0] {
				t.Fatalf("template %q: a job simulated %p, not the one built DAG %p", key, d, built[key][0])
			}
		}
		runs += len(ds)
	}
	if runs != len(jobs) {
		t.Fatalf("%d jobs simulated, want %d", runs, len(jobs))
	}
}

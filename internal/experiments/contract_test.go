package experiments

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// errCaptured stops a figure at its engine call once its jobs are captured.
var errCaptured = errors.New("jobs captured")

// captureJobs runs fig with runJobs replaced by a recorder and returns the
// job list the figure handed to the engine, without simulating any of it.
func captureJobs(t *testing.T, name string, fig func(Options) error, opts Options) []sweep.Job {
	t.Helper()
	var got []sweep.Job
	saved := runJobs
	runJobs = func(_ Options, jobs []sweep.Job) ([]sweep.Result, error) {
		got = append(got, jobs...)
		return nil, errCaptured
	}
	defer func() { runJobs = saved }()
	if err := fig(opts); !errors.Is(err, errCaptured) {
		t.Fatalf("%s: got error %v, want the capture sentinel", name, err)
	}
	if len(got) == 0 {
		t.Fatalf("%s: no jobs captured", name)
	}
	return got
}

// dagDigest hashes everything of a DAG a run can read: its tasks with their
// scalar fields, edges and instruction counts, every task's reference
// stream, and the workload's metrics.  The streams dominate the bytes, so
// they go through a polynomial hash with one dependent multiply per
// reference rather than a cryptographic one: the test only needs to tell
// honest builds apart.
func dagDigest(d *dag.DAG) [2]uint64 {
	const (
		p  = 0x100000001b3
		k1 = 0x9e3779b97f4a7c15
		k2 = 0xbf58476d1ce4e5b9
	)
	meta := fnv.New64a()
	var sum uint64
	buf := make([]refs.Ref, refs.BlockSize)
	fmt.Fprintf(meta, "%s|%d|", d.Name, d.NumTasks())
	for _, t := range d.Tasks() {
		fmt.Fprintf(meta, "%d|%s|%d|%d|%s|%v|%d|%d|%v|%v|", t.ID, t.Name, t.Seq, t.Instrs,
			t.Site, t.Param, t.Level, t.Group, t.Preds, t.Succs)
		if t.Refs == nil {
			sum = sum*p + 1
			continue
		}
		t.Refs.Reset()
		for n := t.Refs.NextBlock(buf); n > 0; n = t.Refs.NextBlock(buf) {
			for _, r := range buf[:n] {
				w := uint64(r.Instrs) << 1
				if r.Write {
					w |= 1
				}
				sum = sum*p + (r.Addr*k1 ^ w*k2)
			}
		}
		sum = sum*p + 2
	}
	metrics := d.Metrics()
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(meta, "%s=%d|", k, metrics[k])
	}
	return [2]uint64{meta.Sum64(), sum}
}

// TestBuildIsFunctionOfWorkloadAndParams pins the sweep engine's memo
// contract on every job list the harness produces: the engine shares one
// recorded DAG among all jobs with equal (Workload, Params), whatever their
// machine, so every Build in such a group must yield the same DAG.  It
// covers each figure at quick scale and a cmd/sweep-style grid of every
// workload over both tables, every topology and every core count; a
// builder that reads the machine without folding what it reads into Params
// (as Figure 8's coarsening could) fails here.
func TestBuildIsFunctionOfWorkloadAndParams(t *testing.T) {
	opts := Options{Quick: true}
	fig8 := func(o Options) error { _, err := Figure8(o); return err }
	figures := []struct {
		name string
		run  func(Options) error
	}{
		{"fig1", func(o Options) error { _, err := Figure1(o); return err }},
		{"fig2", func(o Options) error { _, err := Figure2(o); return err }},
		{"fig3", func(o Options) error { _, err := Figure3(o); return err }},
		{"fig4", func(o Options) error { _, err := Figure4(o); return err }},
		{"fig5", func(o Options) error { _, err := Figure5(o); return err }},
		{"fig6", func(o Options) error { _, err := Figure6(o); return err }},
		{"fig8", fig8},
		{"grain", func(o Options) error { _, err := Granularity(o); return err }},
		{"topology", func(o Options) error { _, err := TopologyComparison(o); return err }},
		{"irregular", func(o Options) error { _, err := IrregularComparison(o); return err }},
		{"scheduler", func(o Options) error { _, err := SchedulerComparison(o); return err }},
	}
	var jobs []sweep.Job
	for _, f := range figures {
		jobs = append(jobs, captureJobs(t, f.name, f.run, opts)...)
	}
	// At quick scale every core count's coarsening selection is empty, so
	// Figure 8 is also captured at a capacity scale where the selections
	// differ between core counts (8, 8 and 4 KB thresholds on 32, 16 and 8
	// cores).
	jobs = append(jobs, captureJobs(t, "fig8 at scale 4", fig8, Options{Quick: true, Scale: 4})...)
	var topos []string
	for _, tp := range TopologyComparisonTopologies() {
		topos = append(topos, tp.String())
	}
	grid, err := sweep.Spec{
		Workloads:  workload.Names(),
		Schedulers: []string{"pdf"},
		Tables:     []string{sweep.TableDefault, sweep.Table45nm},
		Topologies: topos,
		Quick:      true,
		Factory:    opts.WorkloadFactory(),
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, grid...)

	// Jobs that also share a configuration (one per scheduler) share one
	// Build, so build one job per (workload, params, configuration), on a
	// few goroutines, one DAG at a time per goroutine.
	var work []sweep.Job
	seen := make(map[string]bool)
	for _, j := range jobs {
		if k := j.Key.Workload + "\x00" + j.Key.Params + "\x00" + j.Key.Config; !seen[k] {
			seen[k] = true
			work = append(work, j)
		}
	}
	digests := make([][2]uint64, len(work))
	errs := make([]error, len(work))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				d, err := work[i].Build()
				if err != nil {
					errs[i] = err
					continue
				}
				digests[i] = dagDigest(d)
			}
		}()
	}
	for i := range work {
		next <- i
	}
	close(next)
	wg.Wait()

	first := make(map[string]int) // (workload, params) -> its first build
	for i, j := range work {
		if errs[i] != nil {
			t.Fatalf("%s (%s): build: %v", j.Key, j.Config.Name, errs[i])
		}
		group := j.Key.Workload + "\x00" + j.Key.Params
		f, ok := first[group]
		if !ok {
			first[group] = i
			continue
		}
		if digests[i] != digests[f] {
			t.Errorf("%s: params %q build different DAGs on %s and %s",
				j.Key.Workload, j.Key.Params, work[f].Config.Name, j.Config.Name)
		}
	}
	t.Logf("%d jobs in %d (workload, params) groups; %d builds compared", len(jobs), len(first), len(work))
}

package cmpsim_test

import (
	"reflect"
	"sync"
	"testing"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/sched"
	"cmpsched/internal/workload"
)

// TestConcurrentRunsShareOneDAG runs every registered scheduler (sb among
// them, which profiles the DAG in Reset) and the sequential baseline at
// once on one DAG that nobody recorded beforehand.  Each result must equal a
// serial run on a fresh build of the same DAG.  Under -race (CI) it also
// pins that sharing involves no unsynchronised write.
func TestConcurrentRunsShareOneDAG(t *testing.T) {
	build := func() *dag.DAG {
		d, _, err := workload.NewMergesort(workload.MergesortConfig{
			Elements: 64 << 10, TaskWorkingSetBytes: 2 << 10,
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cfg := config.MustDefault(8).Scaled(config.DefaultScale * 16)
	const sequential = "sequential"
	names := append(sched.Names(), sequential)
	run := func(d *dag.DAG, name string) (*cmpsim.Result, error) {
		if name == sequential {
			return cmpsim.RunSequential(d, cfg)
		}
		s, err := sched.New(name)
		if err != nil {
			return nil, err
		}
		return cmpsim.Run(d, s, cfg)
	}

	want := make([]*cmpsim.Result, len(names))
	for i, name := range names {
		r, err := run(build(), name)
		if err != nil {
			t.Fatalf("%q on a fresh build: %v", name, err)
		}
		want[i] = r
	}

	shared := build()
	got := make([]*cmpsim.Result, len(names))
	errs := make([]error, len(names))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = run(shared, name)
		}()
	}
	close(start)
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Errorf("%q on the shared DAG: %v", name, errs[i])
			continue
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%q on the shared DAG: %d cycles, %d L2 misses; on a fresh build: %d cycles, %d L2 misses",
				name, got[i].Cycles, got[i].L2.Misses, want[i].Cycles, want[i].L2.Misses)
		}
	}
}

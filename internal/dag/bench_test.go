package dag_test

import (
	"testing"

	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
	"cmpsched/internal/workload"
)

// BenchmarkRecord times dag.Record on the quick-mode inputs of the
// experiments: a mergesort whose tasks carry composite generators to drain,
// and a BFS whose kernel already interned its traces.  Each iteration
// records a fresh build (built outside the timer) into a fresh store.
func BenchmarkRecord(b *testing.B) {
	for _, bc := range []struct {
		name string
		w    workload.Workload
	}{
		{"mergesort", workload.NewMergesort(workload.MergesortConfig{Elements: 64 << 10, TaskWorkingSetBytes: 2 << 10})},
		{"bfs", workload.NewBFS(workload.BFSConfig{Shape: workload.GraphShape{Family: "uniform", Vertices: 1 << 11, EdgesPerTask: 512}})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var refsPerOp int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, _, err := bc.w.Build()
				if err != nil {
					b.Fatal(err)
				}
				refsPerOp = d.TotalRefs()
				b.StartTimer()
				dag.Record(d, refs.NewTraceStore())
			}
			b.ReportMetric(float64(refsPerOp), "refs/op")
		})
	}
}

package dag

import (
	"slices"
	"sync"
	"testing"

	"cmpsched/internal/refs"
)

// buildReplayFixture makes a small fork-join DAG with a mix of ref-bearing and
// compute-only tasks, including two tasks with byte-identical streams.
func buildReplayFixture(t *testing.T) *DAG {
	t.Helper()
	d := New("diamond")
	mk := func() refs.Gen { return refs.NewScan(1<<20, 640, 64, 2) }
	root := d.AddComputeTask("root", 100)
	a := d.AddTask("a", mk())
	b := d.AddTask("b", mk()) // identical stream to a
	c := d.AddTask("c", &refs.Strided{Base: 1 << 21, StrideBytes: 128, Count: 30, InstrsPerRef: 1})
	join := d.AddComputeTask("join", 50)
	d.Fork(root.ID, a.ID, b.ID, c.ID)
	d.Join(join.ID, a.ID, b.ID, c.ID)
	d.RecordMetric("m", 7)
	if err := d.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return d
}

// TestSnapshotInstantiateEquivalence pins that recording changes nothing a
// run can observe: structure, totals, metrics, and every task's reference
// stream, read through TaskRefs and through the Task.Refs cursor alike.
// Recording is in place: Record returns the DAG itself.
func TestSnapshotInstantiateEquivalence(t *testing.T) {
	src := buildReplayFixture(t)
	wantStreams := make([][]refs.Ref, src.NumTasks())
	for i, task := range src.Tasks() {
		if task.Refs != nil {
			wantStreams[i] = refs.Collect(task.Refs)
		}
	}
	instrs, totalRefs := src.TotalInstrs(), src.TotalRefs()

	snap := Record(src, nil)
	if snap != src {
		t.Fatalf("Record must return the DAG itself")
	}
	if err := src.Validate(); err != nil {
		t.Fatalf("recorded DAG invalid: %v", err)
	}
	if src.TotalInstrs() != instrs || src.TotalRefs() != totalRefs {
		t.Fatalf("recording changed the totals")
	}
	if src.Metrics()["m"] != 7 {
		t.Fatalf("recording lost metrics: %v", src.Metrics())
	}
	for i, task := range src.Tasks() {
		got := src.TaskRefs(TaskID(i))
		if !slices.Equal(got, wantStreams[i]) {
			t.Fatalf("task %d: TaskRefs has %d refs, want %d", i, len(got), len(wantStreams[i]))
		}
		if task.Refs == nil {
			continue
		}
		if _, ok := task.Refs.(*refs.Recorded); !ok {
			t.Fatalf("task %d: Refs is %T after Record, want *refs.Recorded", i, task.Refs)
		}
		if got := refs.Collect(task.Refs); !slices.Equal(got, wantStreams[i]) {
			t.Fatalf("task %d: recorded cursor drains %d refs, want %d", i, len(got), len(wantStreams[i]))
		}
	}
	// Tasks "a" and "b" emit identical streams and share one arena.
	if sa, sb := src.TaskRefs(1), src.TaskRefs(2); len(sa) == 0 || &sa[0] != &sb[0] {
		t.Fatalf("identical tasks do not share an arena")
	}
}

// TestSnapshotInstancesAreIndependent pins that an instance drains through
// its own cursors over the recorded arenas: draining one, or calling
// ResetRefs on it, moves neither a sibling's cursors nor the recorded DAG's.
func TestSnapshotInstancesAreIndependent(t *testing.T) {
	src := Record(buildReplayFixture(t), nil)
	i1, i2 := src.Instantiate(), src.Instantiate()
	if i1 == src || i1 == i2 || i1.NumTasks() != src.NumTasks() || i1.Metrics()["m"] != 7 {
		t.Fatalf("Instantiate did not return separate instances of the DAG")
	}
	for i, task := range i1.Tasks() {
		want := src.TaskRefs(TaskID(i))
		if len(want) == 0 {
			continue
		}
		if got := task.Refs.(refs.Sliced).NextSlice(); !slices.Equal(got, want) {
			t.Fatalf("task %d: instance drains %d refs, want %d", i, len(got), len(want))
		}
		if got := i1.TaskRefs(TaskID(i)); &got[0] != &want[0] {
			t.Fatalf("task %d: instance does not share the recorded arena", i)
		}
		// i1 is drained; the sibling's and src's cursors are still at the start.
		for _, d := range []*DAG{i2, src} {
			if got := d.Task(TaskID(i)).Refs.(refs.Sliced).NextSlice(); len(got) != len(want) {
				t.Fatalf("task %d: draining an instance moved another DAG's cursor", i)
			}
		}
	}
	i1.ResetRefs()
	if n := src.Task(1).Refs.NextBlock(make([]refs.Ref, 1)); n != 0 {
		t.Fatalf("ResetRefs on an instance rewound the recorded cursor")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("AddTask on an instance did not panic")
		}
	}()
	i1.AddTask("x", refs.Compute{N: 1})
}

// TestRecordIntoSharedStore pins cross-DAG sharing: recording two builds of
// the same DAG into one store must not grow the arena twice.
func TestRecordIntoSharedStore(t *testing.T) {
	store := refs.NewTraceStore()
	Record(buildReplayFixture(t), store)
	after1 := store.Stats().ArenaBytes
	Record(buildReplayFixture(t), store)
	after2 := store.Stats().ArenaBytes
	if after1 == 0 {
		t.Fatalf("first recording interned nothing")
	}
	if after2 != after1 {
		t.Fatalf("second recording grew the arena: %d -> %d bytes", after1, after2)
	}
}

// TestRecordFirstStoreWins pins that a DAG is recorded once: a later Record
// into another store, and TaskRefs, reuse the first recording.
func TestRecordFirstStoreWins(t *testing.T) {
	d := buildReplayFixture(t)
	first, second := refs.NewTraceStore(), refs.NewTraceStore()
	Record(d, first)
	arena := d.TaskRefs(1)
	Record(d, second)
	if st := second.Stats(); st.Interned != 0 {
		t.Fatalf("second Record interned %d streams, want none", st.Interned)
	}
	if got := d.TaskRefs(1); &got[0] != &arena[0] {
		t.Fatalf("second Record replaced the recorded arena")
	}
	if st := first.Stats(); st.Interned != int64(d.NumTasks()) {
		t.Fatalf("first store interned %d streams, want %d", st.Interned, d.NumTasks())
	}
}

// TestRecordedDAGRejectsMutation pins that building on a recorded DAG fails
// loudly instead of changing a structure concurrent runs may be reading.
func TestRecordedDAGRejectsMutation(t *testing.T) {
	d := buildReplayFixture(t)
	d.TaskRefs(0) // records on first use
	for name, mutate := range map[string]func(){
		"AddTask":        func() { d.AddTask("x", refs.Compute{N: 1}) },
		"AddComputeTask": func() { d.AddComputeTask("x", 1) },
		"AddEdge":        func() { _ = d.AddEdge(0, 4) },
		"Fork":           func() { d.Fork(1, 4) },
		"Join":           func() { d.Join(4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a recorded DAG did not panic", name)
				}
			}()
			mutate()
		}()
	}
	if d.NumTasks() != 5 || len(d.Task(0).Succs) != 3 {
		t.Fatalf("a rejected mutation changed the DAG")
	}
}

// TestTaskRefsConcurrentFirstUse reads one unrecorded DAG from many
// goroutines at once (run under -race in CI): exactly one records it, and
// every reader sees the full streams.
func TestTaskRefsConcurrentFirstUse(t *testing.T) {
	want := buildReplayFixture(t)
	d := buildReplayFixture(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := TaskID(0); int(id) < d.NumTasks(); id++ {
				if got := d.TaskRefs(id); int64(len(got)) != lenOf(want.Task(id).Refs) {
					t.Errorf("task %d: %d refs, want %d", id, len(got), lenOf(want.Task(id).Refs))
				}
			}
		}()
	}
	wg.Wait()
}

func lenOf(g refs.Gen) int64 {
	if g == nil {
		return 0
	}
	return g.Len()
}

package dag

import "cmpsched/internal/refs"

// Snapshot is a recorded DAG.  The name exists for the perfbench harness,
// which records each template into a *Snapshot and instantiates it per run.
type Snapshot = DAG

// Record freezes d: every task's reference stream is drained into store
// (a private store when nil) and Task.Refs becomes the interned
// refs.Recorded, so identical streams share one arena.  Only the first call
// on a DAG records, into the store it names; later calls, and TaskRefs,
// reuse that recording.  Record returns d.
//
// Recording is what lets any number of simulations, profiles and goroutines
// share d: each reads the immutable arenas through TaskRefs and keeps its
// own position.  d must be fully built, since AddTask, AddEdge, Fork and
// Join panic once it is recorded.  The recorded streams replay the original
// generators exactly, so results are unchanged.
func Record(d *DAG, store *refs.TraceStore) *DAG {
	d.once.Do(func() {
		if store == nil {
			store = refs.NewTraceStore()
		}
		for _, t := range d.tasks {
			if t.Refs != nil {
				t.Refs = store.Intern(t.Refs)
			}
		}
		d.frozen.Store(true)
	})
	return d
}

// Instantiate records d if it is not yet recorded and returns an instance
// for callers that drain Task.Refs through the cursor API, as perfbench's
// replay does: new task structs whose Refs are rewound clones of d's
// recorded cursors over the same arenas.  Draining the instance, or calling
// ResetRefs on it, leaves d's own cursors alone, so d stays read-only for
// every other reader.  The instance is itself recorded.  Simulations and
// profiles need no instance: they read TaskRefs and share d.
func (d *DAG) Instantiate() *DAG {
	Record(d, nil)
	tasks := make([]Task, len(d.tasks))
	ptrs := make([]*Task, len(d.tasks))
	for i, t := range d.tasks {
		tasks[i] = *t
		if r, ok := t.Refs.(*refs.Recorded); ok {
			tasks[i].Refs = r.Clone()
		}
		ptrs[i] = &tasks[i]
	}
	inst := &DAG{Name: d.Name, tasks: ptrs, metrics: d.metrics}
	inst.once.Do(func() { inst.frozen.Store(true) })
	return inst
}

// TaskRefs returns task id's reference stream as a read-only slice of its
// recorded arena (nil for a task without references), recording d into a
// private store on first use.  It is safe for concurrent use and moves no
// cursor, so every reader of a shared DAG sees the whole stream.
func (d *DAG) TaskRefs(id TaskID) []refs.Ref {
	Record(d, nil)
	if r, ok := d.tasks[id].Refs.(*refs.Recorded); ok {
		return r.Refs()
	}
	return nil
}

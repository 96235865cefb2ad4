// Package dag models the computation DAG executed by the schedulers.
//
// Each node is a task: a thread, or the portion of a thread between
// synchronisation points, with no internal dependences to or from other
// nodes.  A task carries its instruction count (the node weight used for
// depth/work accounting), a memory-reference stream (package refs), and the
// position it would occupy in the sequential depth-first (1DF) execution of
// the program — the order the Parallel Depth First scheduler prioritises.
//
// Workload generators construct DAGs by creating tasks in sequential
// execution order and adding dependence edges; Validate checks that the edge
// structure is acyclic and consistent with the sequential order.  Record
// then freezes a built DAG so that any number of runs can share it.
package dag

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cmpsched/internal/refs"
)

// TaskID identifies a task within a DAG. IDs are dense, starting at 0, in
// task-creation order.
type TaskID int32

// None is the zero value used where no task applies.
const None TaskID = -1

// Task is a node of the computation DAG.
type Task struct {
	// ID is the task's identifier within its DAG.
	ID TaskID
	// Name is a human-readable label, e.g. "merge[0:1024]".
	Name string
	// Seq is the position of the task in the sequential (1DF) execution
	// order of the program. The PDF scheduler always runs the ready task
	// with the smallest Seq.
	Seq int
	// Instrs is the number of instructions the task retires, equal to
	// Refs.Instrs() when Refs is non-nil. It is the node weight used for
	// work and depth computations.
	Instrs int64
	// Refs generates the task's memory references. Nil means the task
	// performs no memory accesses (Instrs compute-only cycles).  Once the
	// DAG is recorded it is the task's interned *refs.Recorded; readers
	// that share the DAG use DAG.TaskRefs instead of draining it.
	Refs refs.Gen

	// Preds and Succs are the dependence edges. A task is ready when all
	// of its predecessors have completed.
	Preds []TaskID
	Succs []TaskID

	// Site labels the spawn location in the source program (file:line in
	// the paper's parallelization table). Used by the coarsening pass.
	Site string
	// Param is the workload-specific parameter controlling the grain at
	// the spawn site (e.g. sub-array bytes), recorded so that coarsening
	// decisions can be mapped back to thresholds.
	Param float64
	// Level is an optional workload-defined level (e.g. merge level in
	// Mergesort) used by per-level analyses such as Figure 1.
	Level int
	// Group is the index of the leaf task group that owns this task in
	// the workload's group tree, or -1.
	Group int
}

// DAG is a directed acyclic graph of tasks.
type DAG struct {
	// Name identifies the workload instance that produced the DAG.
	Name  string
	tasks []*Task
	// metrics holds workload-recorded scalar annotations (see RecordMetric).
	metrics map[string]int64

	once   sync.Once   // guards Record
	frozen atomic.Bool // set by Record; the structure is read-only after
}

// mutable panics when d has been recorded: a recorded DAG may be in use by
// concurrent runs, so changing its structure is a bug, not an error.
func (d *DAG) mutable(op string) {
	if d.frozen.Load() {
		panic(fmt.Sprintf("dag: %s on recorded DAG %q", op, d.Name))
	}
}

// RecordMetric attaches a named scalar annotation to the DAG — facts only
// the workload builder knows, such as the per-level frontier sizes of the
// graph kernels.  The simulator publishes annotations into its metrics
// registry (prefixed "dag.") when metrics are enabled; they have no effect
// on the simulation itself.
func (d *DAG) RecordMetric(name string, v int64) {
	if d.metrics == nil {
		d.metrics = make(map[string]int64)
	}
	d.metrics[name] = v
}

// Metrics returns the workload-recorded annotations (nil when none were
// recorded).  The map is the DAG's own; callers must not mutate it.
func (d *DAG) Metrics() map[string]int64 { return d.metrics }

// New returns an empty DAG with the given name.
func New(name string) *DAG {
	return &DAG{Name: name}
}

// AddTask appends a task. Tasks must be created in sequential (1DF)
// execution order: the n-th task created receives Seq = n.
func (d *DAG) AddTask(name string, gen refs.Gen) *Task {
	d.mutable("AddTask")
	var instrs int64
	if gen != nil {
		instrs = gen.Instrs()
	}
	t := &Task{
		ID:     TaskID(len(d.tasks)),
		Name:   name,
		Seq:    len(d.tasks),
		Instrs: instrs,
		Refs:   gen,
		Group:  -1,
	}
	d.tasks = append(d.tasks, t)
	return t
}

// AddComputeTask appends a task that retires instrs instructions and
// performs no memory references.
func (d *DAG) AddComputeTask(name string, instrs int64) *Task {
	return d.AddTask(name, refs.Compute{N: instrs})
}

// AddEdge records a dependence from task `from` to task `to` (to cannot
// start until from completes). Self edges and duplicate edges are rejected.
func (d *DAG) AddEdge(from, to TaskID) error {
	d.mutable("AddEdge")
	if !d.valid(from) || !d.valid(to) {
		return fmt.Errorf("dag: edge %d->%d references unknown task (have %d tasks)", from, to, len(d.tasks))
	}
	if from == to {
		return fmt.Errorf("dag: self edge on task %d", from)
	}
	f := d.tasks[from]
	for _, s := range f.Succs {
		if s == to {
			return fmt.Errorf("dag: duplicate edge %d->%d", from, to)
		}
	}
	f.Succs = append(f.Succs, to)
	d.tasks[to].Preds = append(d.tasks[to].Preds, from)
	return nil
}

// MustEdge is AddEdge but panics on error; intended for workload generators
// whose edge structure is correct by construction.
func (d *DAG) MustEdge(from, to TaskID) {
	if err := d.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Fork adds edges from parent to every child.
func (d *DAG) Fork(parent TaskID, children ...TaskID) {
	for _, c := range children {
		d.MustEdge(parent, c)
	}
}

// Join adds edges from every pred to join.
func (d *DAG) Join(join TaskID, preds ...TaskID) {
	for _, p := range preds {
		d.MustEdge(p, join)
	}
}

func (d *DAG) valid(id TaskID) bool { return id >= 0 && int(id) < len(d.tasks) }

// Task returns the task with the given ID, or nil.
func (d *DAG) Task(id TaskID) *Task {
	if !d.valid(id) {
		return nil
	}
	return d.tasks[id]
}

// NumTasks returns the number of tasks.
func (d *DAG) NumTasks() int { return len(d.tasks) }

// Tasks returns the tasks in creation (sequential) order. The slice is the
// DAG's backing store; callers must not modify it.
func (d *DAG) Tasks() []*Task { return d.tasks }

// Roots returns the tasks with no predecessors, in sequential order.
func (d *DAG) Roots() []TaskID {
	var roots []TaskID
	for _, t := range d.tasks {
		if len(t.Preds) == 0 {
			roots = append(roots, t.ID)
		}
	}
	return roots
}

// Sinks returns the tasks with no successors, in sequential order.
func (d *DAG) Sinks() []TaskID {
	var sinks []TaskID
	for _, t := range d.tasks {
		if len(t.Succs) == 0 {
			sinks = append(sinks, t.ID)
		}
	}
	return sinks
}

// TotalInstrs returns the total work (sum of task instruction counts).
func (d *DAG) TotalInstrs() int64 {
	var total int64
	for _, t := range d.tasks {
		total += t.Instrs
	}
	return total
}

// TotalRefs returns the total number of memory references across all tasks.
func (d *DAG) TotalRefs() int64 {
	var total int64
	for _, t := range d.tasks {
		if t.Refs != nil {
			total += t.Refs.Len()
		}
	}
	return total
}

// Depth returns the weight of the heaviest dependence path (the critical
// path length D in the paper's notation), measured in instructions.
func (d *DAG) Depth() int64 {
	// Tasks are in a topological order (Seq order), so a single forward
	// sweep computes longest paths.
	if len(d.tasks) == 0 {
		return 0
	}
	finish := make([]int64, len(d.tasks))
	var depth int64
	for _, t := range d.tasks {
		var start int64
		for _, p := range t.Preds {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[t.ID] = start + t.Instrs
		if finish[t.ID] > depth {
			depth = finish[t.ID]
		}
	}
	return depth
}

// ErrCycle is returned by Validate when the edge structure is cyclic or
// inconsistent with the sequential order.
var ErrCycle = errors.New("dag: edges are not consistent with a sequential (topological) order")

// Validate checks structural invariants:
//   - task IDs are dense and Seq equals creation order,
//   - every edge joins two known tasks,
//   - predecessor Seq is strictly less than successor Seq (hence acyclic),
//   - Instrs agrees with the reference generator when present.
func (d *DAG) Validate() error {
	for i, t := range d.tasks {
		if int(t.ID) != i {
			return fmt.Errorf("dag: task at position %d has ID %d", i, t.ID)
		}
		if t.Seq != i {
			return fmt.Errorf("dag: task %d has Seq %d, want %d", t.ID, t.Seq, i)
		}
		if t.Refs != nil && t.Instrs != t.Refs.Instrs() {
			return fmt.Errorf("dag: task %d Instrs=%d but generator reports %d", t.ID, t.Instrs, t.Refs.Instrs())
		}
		for _, s := range t.Succs {
			if !d.valid(s) {
				return fmt.Errorf("dag: task %d has unknown successor %d", t.ID, s)
			}
			if d.tasks[s].Seq <= t.Seq {
				return fmt.Errorf("%w: edge %d->%d goes backwards in sequential order", ErrCycle, t.ID, s)
			}
		}
		for _, p := range t.Preds {
			if !d.valid(p) {
				return fmt.Errorf("dag: task %d has unknown predecessor %d", t.ID, p)
			}
		}
	}
	// Cross-check that Preds and Succs mirror each other.
	for _, t := range d.tasks {
		for _, s := range t.Succs {
			if !contains(d.tasks[s].Preds, t.ID) {
				return fmt.Errorf("dag: edge %d->%d missing reverse link", t.ID, s)
			}
		}
		for _, p := range t.Preds {
			if !contains(d.tasks[p].Succs, t.ID) {
				return fmt.Errorf("dag: edge %d->%d missing forward link", p, t.ID)
			}
		}
	}
	return nil
}

func contains(ids []TaskID, id TaskID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// ResetRefs rewinds every task's Refs cursor, for callers that drain
// Task.Refs themselves; the simulator and the profiler read TaskRefs and
// never need it.
func (d *DAG) ResetRefs() {
	for _, t := range d.tasks {
		if t.Refs != nil {
			t.Refs.Reset()
		}
	}
}

// SequentialOrder returns task IDs sorted by Seq (equivalently, creation
// order).  It exists mostly for symmetry and for callers holding a filtered
// task set.
func (d *DAG) SequentialOrder() []TaskID {
	ids := make([]TaskID, len(d.tasks))
	for i := range ids {
		ids[i] = TaskID(i)
	}
	return ids
}

// TopologicalCheck verifies by Kahn's algorithm that the DAG is acyclic and
// returns the number of tasks visited. It is a heavier-weight check than
// Validate used by property tests.
func (d *DAG) TopologicalCheck() (int, error) {
	indeg := make([]int, len(d.tasks))
	for _, t := range d.tasks {
		indeg[t.ID] = len(t.Preds)
	}
	var queue []TaskID
	for _, t := range d.tasks {
		if indeg[t.ID] == 0 {
			queue = append(queue, t.ID)
		}
	}
	visited := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		visited++
		for _, s := range d.tasks[id].Succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if visited != len(d.tasks) {
		return visited, ErrCycle
	}
	return visited, nil
}

// CriticalPath returns the IDs of tasks along one heaviest dependence path,
// in execution order.
func (d *DAG) CriticalPath() []TaskID {
	if len(d.tasks) == 0 {
		return nil
	}
	finish := make([]int64, len(d.tasks))
	prev := make([]TaskID, len(d.tasks))
	for i := range prev {
		prev[i] = None
	}
	var last TaskID
	var depth int64 = -1
	for _, t := range d.tasks {
		var start int64
		best := None
		for _, p := range t.Preds {
			if finish[p] > start {
				start = finish[p]
				best = p
			}
		}
		prev[t.ID] = best
		finish[t.ID] = start + t.Instrs
		if finish[t.ID] > depth {
			depth = finish[t.ID]
			last = t.ID
		}
	}
	var path []TaskID
	for id := last; id != None; id = prev[id] {
		path = append(path, id)
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Stats summarises the DAG for reporting.
type Stats struct {
	Tasks       int
	Edges       int
	TotalInstrs int64
	TotalRefs   int64
	Depth       int64
	MaxOutDeg   int
	MaxInDeg    int
	Roots       int
	Sinks       int
}

// ComputeStats gathers summary statistics about the DAG.
func (d *DAG) ComputeStats() Stats {
	s := Stats{
		Tasks:       len(d.tasks),
		TotalInstrs: d.TotalInstrs(),
		TotalRefs:   d.TotalRefs(),
		Depth:       d.Depth(),
		Roots:       len(d.Roots()),
		Sinks:       len(d.Sinks()),
	}
	for _, t := range d.tasks {
		s.Edges += len(t.Succs)
		if len(t.Succs) > s.MaxOutDeg {
			s.MaxOutDeg = len(t.Succs)
		}
		if len(t.Preds) > s.MaxInDeg {
			s.MaxInDeg = len(t.Preds)
		}
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d edges=%d instrs=%d refs=%d depth=%d roots=%d sinks=%d maxOut=%d maxIn=%d",
		s.Tasks, s.Edges, s.TotalInstrs, s.TotalRefs, s.Depth, s.Roots, s.Sinks, s.MaxOutDeg, s.MaxInDeg)
}

// TasksByLevel groups task IDs by their Level field, returning levels in
// ascending order. Used by per-level miss analyses (Figure 1).
func (d *DAG) TasksByLevel() map[int][]TaskID {
	out := make(map[int][]TaskID)
	for _, t := range d.tasks {
		out[t.Level] = append(out[t.Level], t.ID)
	}
	return out
}

// Levels returns the distinct Level values present, ascending.
func (d *DAG) Levels() []int {
	seen := make(map[int]bool)
	for _, t := range d.tasks {
		seen[t.Level] = true
	}
	levels := make([]int, 0, len(seen))
	for l := range seen {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	return levels
}

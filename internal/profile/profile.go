// Package profile implements the working-set profilers of §6.1: the one-pass
// LruTree algorithm and the multi-pass SetAssoc baseline it is compared
// against.
//
// Both profilers consume the sequential trace of a computation DAG (tasks
// replayed in sequential order) and answer the question the automatic
// task-coarsening pass needs answered: for any *group of consecutive tasks*
// and any cache size, how many references hit, and how large is the group's
// working set?
//
// LruTree performs a single pass over the trace.  An LRU stack is maintained
// implicitly: every cache line records the time and task of its previous
// visit, and a Fenwick (binary-indexed) tree over time slots counts, in
// O(log n), how many distinct lines were touched since that visit — the LRU
// stack distance.  (The paper builds a B-tree over a doubly-linked stack for
// the same order-statistics query; the Fenwick tree is this repository's
// equivalent index.)  Each reference is then binned into a per-task
// two-dimensional histogram over (distance bucket, task-ID delta), from
// which the hit count of any consecutive task group [b, e] under any cache
// size is obtained by summing buckets with distance ≤ cache size and task
// delta ≤ i−b — exactly the computation described in §6.1.
package profile

import (
	"fmt"
	"sort"

	"cmpsched/internal/dag"
	"cmpsched/internal/taskgroup"
)

// Config controls a profiling pass.
type Config struct {
	// LineBytes is the cache-line size used for the stack model.
	LineBytes int64
	// CacheSizes is the ascending list of cache sizes (bytes) for which
	// hit counts are computed (the distance-dimension buckets D1 < D2 <
	// ... < Dk of the histogram).
	CacheSizes []int64
}

// DefaultCacheSizes returns a geometric ladder of cache sizes from 32 KB to
// 4 MB, a convenient default for scaled configurations.
func DefaultCacheSizes() []int64 {
	sizes := []int64{}
	for s := int64(32 << 10); s <= 4<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

func (c Config) withDefaults() Config {
	if c.LineBytes == 0 {
		c.LineBytes = 128
	}
	if len(c.CacheSizes) == 0 {
		c.CacheSizes = DefaultCacheSizes()
	}
	sort.Slice(c.CacheSizes, func(i, j int) bool { return c.CacheSizes[i] < c.CacheSizes[j] })
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineBytes <= 0 {
		return fmt.Errorf("profile: LineBytes must be positive")
	}
	if len(c.CacheSizes) == 0 {
		return fmt.Errorf("profile: at least one cache size required")
	}
	for i, s := range c.CacheSizes {
		if s < c.LineBytes {
			return fmt.Errorf("profile: cache size %d smaller than a line", s)
		}
		if i > 0 && s <= c.CacheSizes[i-1] {
			return fmt.Errorf("profile: cache sizes must be strictly ascending")
		}
	}
	return nil
}

// histEntry is one cell of a task's two-dimensional histogram.
type histEntry struct {
	// bucket is the distance bucket: index into CacheSizes for the
	// smallest cache size that would hold the reuse, or len(CacheSizes)
	// when the reuse distance exceeds every profiled cache size.
	bucket int32
	// delta is the difference between the referencing task's ID and the
	// ID of the task that previously visited the line.
	delta int32
	count int64
}

// Profile is the result of an LruTree profiling pass: the per-task
// two-dimensional histograms plus per-task reference counts, from which
// group working sets are computed without revisiting the trace.
type Profile struct {
	cfg      Config
	numTasks int
	// refs[i] is the number of references issued by task i.
	refs []int64
	// hist[i] holds task i's (bucket, delta) histogram, sorted by
	// (bucket, delta).
	hist [][]histEntry
	// totalRefs is the trace length.
	totalRefs int64
}

// Config returns the profiling configuration.
func (p *Profile) Config() Config { return p.cfg }

// NumTasks returns the number of tasks profiled.
func (p *Profile) NumTasks() int { return p.numTasks }

// TotalRefs returns the number of references in the profiled trace.
func (p *Profile) TotalRefs() int64 { return p.totalRefs }

// TaskRefs returns the number of references issued by one task.
func (p *Profile) TaskRefs(id dag.TaskID) int64 {
	if int(id) >= len(p.refs) || id < 0 {
		return 0
	}
	return p.refs[id]
}

// GroupStats summarises one task group's cache behaviour.
type GroupStats struct {
	// First and Last delimit the group's consecutive task range.
	First, Last dag.TaskID
	// Refs is the number of references issued by the group.
	Refs int64
	// DistinctLines is the number of distinct cache lines the group
	// touches (its working set, in lines).
	DistinctLines int64
	// WorkingSetBytes is DistinctLines times the line size.
	WorkingSetBytes int64
	// Hits[i] is the number of references that hit in an LRU cache of
	// Config.CacheSizes[i] bytes, starting cold at the group's beginning.
	Hits []int64
}

// Misses returns the miss count for the i-th profiled cache size.
func (g GroupStats) Misses(i int) int64 {
	if i < 0 || i >= len(g.Hits) {
		return g.Refs
	}
	return g.Refs - g.Hits[i]
}

// Group computes the statistics of the consecutive task range [first, last].
//
// For a cache of size Dp, a reference from task i hits if its previous visit
// was at stack distance ≤ Dp and was made by a task j with i-j ≤ i-first
// (i.e. the previous visit happened inside the group); otherwise it is a
// (cold or capacity) miss.
func (p *Profile) Group(first, last dag.TaskID) GroupStats {
	if first < 0 {
		first = 0
	}
	if int(last) >= p.numTasks {
		last = dag.TaskID(p.numTasks - 1)
	}
	g := GroupStats{First: first, Last: last, Hits: make([]int64, len(p.cfg.CacheSizes))}
	if last < first {
		return g
	}
	var reusesWithinGroup int64
	for i := first; i <= last; i++ {
		g.Refs += p.refs[i]
		maxDelta := int32(i - first)
		for _, e := range p.hist[i] {
			if e.delta > maxDelta {
				continue
			}
			reusesWithinGroup += e.count
			if int(e.bucket) < len(g.Hits) {
				// A reuse at bucket b hits in every cache size >= that
				// bucket's size.
				for s := int(e.bucket); s < len(g.Hits); s++ {
					g.Hits[s] += e.count
				}
			}
		}
	}
	g.DistinctLines = g.Refs - reusesWithinGroup
	g.WorkingSetBytes = g.DistinctLines * p.cfg.LineBytes
	return g
}

// GroupOf computes the statistics for a task-group-tree node.
func (p *Profile) GroupOf(n *taskgroup.Node) GroupStats {
	if n == nil || n.Last < n.First {
		return GroupStats{Hits: make([]int64, len(p.cfg.CacheSizes))}
	}
	return p.Group(n.First, n.Last)
}

// AnnotateTree computes statistics for every node of the tree, indexed by
// node ID.
func (p *Profile) AnnotateTree(tree *taskgroup.Tree) []GroupStats {
	out := make([]GroupStats, len(tree.Nodes))
	for _, n := range tree.Nodes {
		out[n.ID] = p.GroupOf(n)
	}
	return out
}

// lineState records a line's previous visit.
type lineState struct {
	lastTime int32
	lastTask int32
}

// LruTree is the one-pass working-set profiler.
type LruTree struct {
	cfg Config
}

// NewLruTree returns a one-pass profiler with the given configuration.
func NewLruTree(cfg Config) *LruTree { return &LruTree{cfg: cfg.withDefaults()} }

// ProfileDAG replays the DAG's tasks in sequential order and builds the
// per-task histograms.  It records d (dag.Record) and reads the recorded
// streams without moving any cursor, so profiles and simulations may share
// d concurrently.
func (l *LruTree) ProfileDAG(d *dag.DAG) (*Profile, error) {
	if err := l.cfg.Validate(); err != nil {
		return nil, err
	}
	dag.Record(d, nil)
	n := d.NumTasks()
	if n == 0 {
		return nil, fmt.Errorf("profile: empty DAG")
	}
	totalRefs := d.TotalRefs()
	if totalRefs > 1<<31-2 {
		return nil, fmt.Errorf("profile: trace too long (%d references)", totalRefs)
	}
	pr := &Profile{
		cfg:       l.cfg,
		numTasks:  n,
		refs:      make([]int64, n),
		hist:      make([][]histEntry, n),
		totalRefs: 0,
	}
	// Distance thresholds in lines for each cache size.
	thresholds := make([]int64, len(l.cfg.CacheSizes))
	for i, s := range l.cfg.CacheSizes {
		thresholds[i] = s / l.cfg.LineBytes
	}
	bucketFor := func(dist int64) int32 {
		for i, t := range thresholds {
			if dist < t {
				return int32(i)
			}
		}
		return int32(len(thresholds))
	}

	bit := newFenwick(int(totalRefs) + 1)
	lines := make(map[uint64]lineState, 1<<16)
	// Scratch map for accumulating one task's histogram before freezing
	// it into a sorted slice.
	scratch := make(map[uint64]int64)

	var now int32
	for _, task := range d.Tasks() {
		clear(scratch)
		var taskRefs int64
		for _, r := range d.TaskRefs(task.ID) {
			taskRefs++
			now++
			line := r.Addr / uint64(l.cfg.LineBytes)
			if st, seen := lines[line]; seen {
				dist := bit.rangeSum(int(st.lastTime)+1, int(now)-1)
				bucket := bucketFor(dist)
				delta := int32(task.ID) - st.lastTask
				scratch[uint64(bucket)<<32|uint64(uint32(delta))]++
				bit.add(int(st.lastTime), -1)
			}
			bit.add(int(now), 1)
			lines[line] = lineState{lastTime: now, lastTask: int32(task.ID)}
		}
		pr.refs[task.ID] = taskRefs
		pr.totalRefs += taskRefs
		if len(scratch) > 0 {
			entries := make([]histEntry, 0, len(scratch))
			for k, v := range scratch {
				entries = append(entries, histEntry{
					bucket: int32(k >> 32),
					delta:  int32(uint32(k)),
					count:  v,
				})
			}
			sort.Slice(entries, func(i, j int) bool {
				if entries[i].bucket != entries[j].bucket {
					return entries[i].bucket < entries[j].bucket
				}
				return entries[i].delta < entries[j].delta
			})
			pr.hist[task.ID] = entries
		}
	}
	return pr, nil
}

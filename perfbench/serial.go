package main

import (
	"fmt"
	"sort"
	"time"

	"cmpsched/internal/cache"
	"cmpsched/internal/cmpsim"
	"cmpsched/internal/dag"
	"cmpsched/internal/obs"
	"cmpsched/internal/refs"
	"cmpsched/internal/sched"
	"cmpsched/internal/sweep"
)

// timedSched times a scheduler's Next and MakeReady calls.  It forwards the
// optional MachineAware and TraceAware hooks, so a wrapped run returns the
// same cmpsim.Result as an unwrapped one.
type timedSched struct {
	sched.Scheduler
	ns, calls int64
}

func (s *timedSched) Next(core int) (dag.TaskID, bool) {
	start := time.Now()
	id, ok := s.Scheduler.Next(core)
	s.ns += int64(time.Since(start))
	s.calls++
	return id, ok
}

func (s *timedSched) MakeReady(core int, tasks []dag.TaskID) {
	start := time.Now()
	s.Scheduler.MakeReady(core, tasks)
	s.ns += int64(time.Since(start))
	s.calls++
}

func (s *timedSched) SetMachine(m sched.Machine) {
	if ma, ok := s.Scheduler.(sched.MachineAware); ok {
		ma.SetMachine(m)
	}
}

func (s *timedSched) SetTracer(tr *obs.Tracer) {
	if ta, ok := s.Scheduler.(sched.TraceAware); ok {
		ta.SetTracer(tr)
	}
}

// layers accumulates what the serial runner measured in each layer.
type layers struct {
	build, record, instantiate, run, sched, replay time.Duration
	builds, schedCalls, steals, tasks, refs        int64
	instrs, l1Accesses, l1Misses, l2Misses         int64
	memFetches, memQueue                           int64
	memUtil                                        float64 // summed over jobs
	jobs                                           int
	replayAccesses                                 int64
	replayL2Dev, replayL2Base                      int64 // parallel jobs only
	seqReplayMismatches                            int
}

// serialRunner runs a grid's jobs one by one, calling each layer's public
// functions directly: build, dag.Record into a shared trace store (once per
// template, as the sweep engine memoises), Instantiate, cmpsim.Run.  With
// tracing on it also times the scheduler, replays the cache, and records
// spans; with tracing off it is its own untraced baseline.
type serialRunner struct {
	tr    *spanLog // nil when untraced
	store *refs.TraceStore
	snaps map[string]*dag.Snapshot
	lay   layers
}

func newSerialRunner(tr *spanLog) *serialRunner {
	return &serialRunner{tr: tr, store: refs.NewTraceStore(), snaps: map[string]*dag.Snapshot{}}
}

// templateKey matches the sweep engine's memo key.
func templateKey(k sweep.Key) string {
	return k.Workload + "\x00" + k.Params + "\x00" + k.Config
}

// run executes one job.
func (dr *serialRunner) run(i int, j sweep.Job) (*cmpsim.Result, error) {
	if j.Options != nil || j.Derive != nil || j.KeepTaskStats {
		return nil, fmt.Errorf("job %d: the serial runner runs only plain jobs", i)
	}
	jobSpan := dr.tr.begin("job", i, -1)
	defer dr.tr.end(jobSpan)
	key := templateKey(j.Key)
	snap, ok := dr.snaps[key]
	if !ok {
		sp := dr.tr.begin("workload.build", i, jobSpan)
		start := time.Now()
		d, err := j.Build()
		dr.lay.build += time.Since(start)
		dr.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("job %d build: %w", i, err)
		}
		dr.lay.builds++
		sp = dr.tr.begin("dag.record", i, jobSpan)
		start = time.Now()
		snap = dag.Record(d, dr.store)
		dr.lay.record += time.Since(start)
		dr.tr.end(sp)
		dr.snaps[key] = snap
	}
	sp := dr.tr.begin("dag.instantiate", i, jobSpan)
	start := time.Now()
	d := snap.Instantiate()
	dr.lay.instantiate += time.Since(start)
	dr.tr.end(sp)

	cfg := j.Config
	var s sched.Scheduler
	if j.Scheduler == sweep.Sequential {
		// What cmpsim.RunSequentialWithOptions does, with the scheduler
		// exposed so it can be timed.
		s, cfg = sched.NewPDF(), cmpsim.SequentialConfig(cfg)
	} else {
		var err error
		if s, err = sched.New(j.Scheduler); err != nil {
			return nil, err
		}
	}
	opts := cmpsim.DefaultOptions()
	opts.RecordTaskStats = dr.tr != nil
	var ts *timedSched
	if dr.tr != nil {
		ts = &timedSched{Scheduler: s}
		s = ts
	}
	sp = dr.tr.begin("cmpsim.run", i, jobSpan)
	start = time.Now()
	res, err := cmpsim.RunWithOptions(d, s, cfg, opts)
	dr.lay.run += time.Since(start)
	dr.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("job %d run: %w", i, err)
	}
	dr.account(res)
	if dr.tr == nil {
		return res, nil
	}
	dr.tr.aggregate("sched.next+make_ready", i, sp, time.Duration(ts.ns), ts.calls)
	dr.lay.sched += time.Duration(ts.ns)
	dr.lay.schedCalls += ts.calls

	sp = dr.tr.begin("cache.replay", i, jobSpan)
	start = time.Now()
	l1, l2, n, err := replay(d, res)
	dr.lay.replay += time.Since(start)
	dr.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("job %d replay: %w", i, err)
	}
	dr.lay.replayAccesses += n
	if j.Scheduler == sweep.Sequential {
		if l1.Hits != res.L1.Hits || l1.Misses != res.L1.Misses || l2.Hits != res.L2.Hits || l2.Misses != res.L2.Misses {
			dr.lay.seqReplayMismatches++
		}
	} else {
		dev := l2.Misses - res.L2.Misses
		dr.lay.replayL2Dev += max(dev, -dev)
		dr.lay.replayL2Base += res.L2.Misses
	}
	res.TaskStats = nil
	return res, nil
}

// account folds a result's simulated counters into the layer totals.
func (dr *serialRunner) account(r *cmpsim.Result) {
	l := &dr.lay
	l.jobs++
	l.tasks += int64(r.TasksExecuted)
	l.refs += r.Refs
	l.instrs += r.Instructions
	l.steals += r.SchedMetrics["steals"]
	l.l1Accesses += r.L1.Accesses
	l.l1Misses += r.L1.Misses
	l.l2Misses += r.L2.Misses
	l.memFetches += r.Mem.Fetches
	for _, p := range r.MemPorts {
		l.memQueue += p.QueueCycles
	}
	l.memUtil += r.MemUtilization
}

// replay feeds every task's reference stream through a fresh hierarchy of
// the run's configuration, whole task by whole task in TaskStats start
// order, each on the core that ran it.  On one core that is exactly the
// simulated access order; on several it drops the interleaving, which is
// what the L2-miss deviation measures.
func replay(d *dag.DAG, res *cmpsim.Result) (l1, l2 cache.Stats, accesses int64, err error) {
	hier, err := cache.NewHierarchy(res.Config.HierarchyConfig())
	if err != nil {
		return l1, l2, 0, err
	}
	ts := res.TaskStats
	order := make([]dag.TaskID, len(ts))
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := ts[order[a]], ts[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.End != y.End {
			return x.End < y.End
		}
		return order[a] < order[b]
	})
	d.ResetRefs()
	buf := make([]refs.Ref, refs.BlockSize)
	for _, id := range order {
		g := d.Task(id).Refs
		if g == nil {
			continue
		}
		core := ts[id].Core
		if sl, ok := g.(refs.Sliced); ok {
			for _, r := range sl.NextSlice() {
				hier.Access(core, r.Addr, r.Write)
				accesses++
			}
			continue
		}
		for n := refs.ReadBlock(g, buf); n > 0; n = refs.ReadBlock(g, buf) {
			for _, r := range buf[:n] {
				hier.Access(core, r.Addr, r.Write)
			}
			accesses += int64(n)
		}
	}
	return hier.L1Stats(), hier.L2Stats(), accesses, nil
}

package sweep

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"cmpsched/internal/dag"
)

// A sweep's job list is typically a grid: the same workload, built from the
// same parameters, appears once per scheduler and once per machine
// configuration, and rebuilding the DAG — regenerating every task's
// reference stream — dominated the cost of the uncached jobs.  The engine
// therefore memoises DAGs: the first job to need a template builds it once
// and records it into the engine's shared content-addressed trace store
// (dag.Record), and every job of the template — the first included —
// simulates that one recorded *dag.DAG, whatever its core count, table or
// topology.  A recorded DAG is immutable and each run keeps its stream
// positions in its own state, so concurrent jobs share it and results are
// byte-identical to per-job rebuilding at any worker count.
//
// Memoisation is keyed by the job Key's Workload and Params fields — exactly
// the inputs BuildFunc is required to be a pure function of.  A builder
// that shapes its DAG to the machine (Hash Join sizing its sub-partitions
// to the L2, Figure 8's cache-driven coarsening) folds what it reads of the
// machine into Params.

// templateEntry is one memoised DAG.  The sync.Once gives the entry
// single-flight semantics: under the parallel engine, concurrent jobs that
// need the same DAG block on the first builder instead of building
// redundantly.
type templateEntry struct {
	once sync.Once
	dag  *dag.DAG
	err  error
}

// templateKey is the content address of a job's DAG.
func templateKey(k Key) string {
	return k.Workload + "\x00" + k.Params
}

// template returns the job's recorded DAG, building and recording it on
// first need.  A build failure — an error, a panic or a nil DAG — is
// memoised too, so every job sharing the template reports the same
// deterministic error.
func (e *Engine) template(j Job) (*dag.DAG, error) {
	key := templateKey(j.Key)
	e.templateMu.Lock()
	ent, ok := e.templates[key]
	if !ok {
		ent = &templateEntry{}
		e.templates[key] = ent
	}
	e.templateMu.Unlock()
	ent.once.Do(func() { ent.dag, ent.err = e.buildTemplate(j) })
	if ent.err != nil {
		return nil, fmt.Errorf("build: %w", ent.err)
	}
	if ok {
		// Not necessarily a job that waited on the builder (another job
		// may have interleaved), but exactly one job observes the map miss
		// per key, which is what makes jobs - builds a deterministic
		// rebuild-avoided count.
		e.em.dagShared.Add(0, 1)
	}
	return ent.dag, nil
}

// buildTemplate runs the job's Build and records the DAG.  A panic is
// recovered into the error here rather than in runJob: sync.Once counts a
// panicking call as done, so without it every later job of the template
// would find a nil DAG.
func (e *Engine) buildTemplate(j Job) (d *dag.DAG, err error) {
	defer func() {
		if p := recover(); p != nil {
			d, err = nil, fmt.Errorf("panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if d, err = j.Build(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, errors.New("returned a nil DAG")
	}
	// Template builds are once-per-key, so the counters are independent
	// of worker count and completion order; shard 0's cell is atomic, so
	// concurrent first-builders of different keys never race.
	e.em.dagBuilds.Add(0, 1)
	return dag.Record(d, e.traces), nil
}

// publishTraceStats exposes the shared trace store's interning counters as
// gauges.  Called when a stream finishes; the values are cumulative over the
// engine's lifetime and deterministic for a given job list.
func (e *Engine) publishTraceStats() {
	st := e.traces.Stats()
	e.em.traceUnique.Set(st.Unique)
	e.em.traceInterned.Set(st.Interned)
	e.em.traceArena.Set(st.ArenaBytes)
}

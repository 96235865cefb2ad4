package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cmpsched/internal/sweep"
)

// tracedWarmPasses is how many warm passes the traced run times: enough for
// twenty samples beyond the 90th percentile.
const tracedWarmPasses = 200

// serviceLayers is what the traced run measured around the sweep service and
// result cache: its 2-worker pass.
type serviceLayers struct {
	getS, putS, expandS, exportS float64
	hitRatio                     float64
	dedupHits                    int64
	warmP90ms                    float64
	streamBytes                  int64
	dagBuilds, dagShared         int64
}

// servicePass is the traced run's 2-worker pass: one cold cycle as the
// untraced runs make it, warm passes through sweepd over the timed
// DiskCache, then the rows exported as CSV.  Its results are the reference
// the serial runner must equal job for job.
func servicePass(e *runEnv, tr *spanLog, ops *tally) ([]*sweep.Result, serviceLayers, error) {
	var sl serviceLayers
	tr.tid = 2
	defer func() { tr.tid = 1 }()
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, sl, err
	}
	sp := tr.begin("cold pass", -1, -1)
	cold, rows, srv, body, err := e.coldCycle(0, ops)
	tr.end(sp)
	if err != nil {
		return nil, sl, err
	}
	defer srv.close()
	sl.dagBuilds, sl.dagShared = cold.dagBuilds, cold.dagShared
	var ws warmSamples
	for n := 0; n < tracedWarmPasses; n++ {
		sp := tr.begin("warm pass", -1, -1)
		err := e.warmPasses(srv, body, time.Time{}, 1, ops, &ws)
		tr.end(sp)
		if err != nil {
			return nil, sl, err
		}
	}
	sp = tr.begin("export", -1, -1)
	start := time.Now()
	var all []sweep.Result
	for _, r := range rows {
		if r != nil {
			all = append(all, *r)
		}
	}
	if err := sweep.WriteCSV(io.Discard, all); err != nil {
		return nil, sl, err
	}
	sl.exportS = time.Since(start).Seconds()
	tr.end(sp)

	if sl.dedupHits, err = srv.dedupHits(); err != nil {
		return nil, sl, err
	}
	sl.getS = float64(srv.cache.getNS.Load()) / 1e9
	sl.putS = float64(srv.cache.putNS.Load()) / 1e9
	sl.expandS = float64(srv.expandNS.Load()) / 1e9
	hits, misses := srv.cache.Stats()
	if hits+misses > 0 {
		sl.hitRatio = float64(hits) / float64(hits+misses)
	}
	sl.streamBytes = ws.bytes
	sl.warmP90ms = quantile(ws.pass, 0.9)
	return rows, sl, nil
}

// serialPass runs the grid through the serial runner, traced or not, and
// returns its per-job digests and wall time.
func serialPass(e *runEnv, dr *serialRunner) ([]string, time.Duration, error) {
	runtime.GC()
	digests := make([]string, len(e.jobs))
	start := time.Now()
	for i, j := range e.jobs {
		r, err := dr.run(i, j)
		if err != nil {
			return nil, 0, err
		}
		digests[i] = jobDigest(j.Key, r)
	}
	return digests, time.Since(start), nil
}

// runTraced is the traced run: the 2-worker service pass, an untraced
// serial pass, and the traced serial pass whose spans give the per-layer
// metrics.  All three must agree job for job.
func runTraced(e *runEnv, traceDir string) (map[string]metric, tally, error) {
	var ops tally
	defer os.RemoveAll(e.dir)
	tr := newSpanLog()
	rows, sl, err := servicePass(e, tr, &ops)
	if err != nil {
		return nil, ops, err
	}
	runtime.GC()

	plain, plainWall, err := serialPass(e, newSerialRunner(nil))
	if err != nil {
		return nil, ops, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dr := newSerialRunner(tr)
	traced, tracedWall, err := serialPass(e, dr)
	if err != nil {
		return nil, ops, err
	}
	runtime.ReadMemStats(&after)

	for i := range e.jobs {
		want := ""
		if rows[i] != nil && rows[i].Sim != nil {
			want = jobDigest(e.jobs[i].Key, rows[i].Sim)
		}
		ops.add(want != "" && traced[i] == want && plain[i] == want)
	}
	l := dr.lay
	for i := 0; i < l.seqReplayMismatches; i++ {
		ops.add(false)
	}

	fmt.Printf("%s seed %d: traced serial pass %.3f s, untraced %.3f s; self time per layer:\n",
		e.name, e.seed, tracedWall.Seconds(), plainWall.Seconds())
	if sum := tr.writeSelfTable(os.Stdout, tracedWall); sum != tracedWall {
		return nil, ops, fmt.Errorf("self times sum to %v, wall is %v", sum, tracedWall)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, ops, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", e.name, e.seed))
	err = tr.writeChrome(path)
	ops.add(err == nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else {
		fmt.Printf("spans written to %s\n", path)
	}

	st := dr.store.Stats()
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	peak, err := procStatusMB("VmHWM:")
	if err != nil {
		return nil, ops, err
	}
	m := map[string]metric{
		"go.peak_rss_mb":               {peak, "MB"},
		"cache.replay_ns_per_access":   {ratio(float64(l.replay), float64(l.replayAccesses)), "ns"},
		"cache.replay_l2_miss_dev_pct": {100 * ratio(float64(l.replayL2Dev), float64(l.replayL2Base)), "%"},
		"cache.l2_mpki":                {1000 * ratio(float64(l.l2Misses), float64(l.instrs)), "1/kinstr"},
		"cache.l1_miss_ratio":          {ratio(float64(l.l1Misses), float64(l.l1Accesses)), "ratio"},
		"cmpsim.run_s":                 {l.run.Seconds(), "s"},
		"cmpsim.self_s":                {(l.run - l.sched).Seconds(), "s"},
		"cmpsim.ns_per_ref":            {ratio(float64(l.run), float64(l.refs)), "ns"},
		"cmpsim.refs":                  {float64(l.refs), "count"},
		"sched.s":                      {l.sched.Seconds(), "s"},
		"sched.calls":                  {float64(l.schedCalls), "count"},
		"sched.ns_per_call":            {ratio(float64(l.sched), float64(l.schedCalls)), "ns"},
		"sched.steals":                 {float64(l.steals), "count"},
		"workload.build_s":             {l.build.Seconds(), "s"},
		"workload.builds":              {float64(l.builds), "count"},
		"dag.record_s":                 {l.record.Seconds(), "s"},
		"dag.instantiate_s":            {l.instantiate.Seconds(), "s"},
		"dag.tasks":                    {float64(l.tasks), "count"},
		"refs.trace_unique":            {float64(st.Unique), "count"},
		"refs.trace_interned":          {float64(st.Interned), "count"},
		"refs.arena_mb":                {float64(st.ArenaBytes) / (1 << 20), "MB"},
		"sweep.dag_builds":             {float64(sl.dagBuilds), "count"},
		"sweep.dag_rebuilds_avoided":   {float64(sl.dagShared), "count"},
		"memsys.fetches":               {float64(l.memFetches), "count"},
		"memsys.queue_cycles":          {float64(l.memQueue), "cycles"},
		"memsys.utilization":           {ratio(l.memUtil, float64(l.jobs)), "ratio"},
		"sweep.cache_get_s":            {sl.getS, "s"},
		"sweep.cache_put_s":            {sl.putS, "s"},
		"sweep.cache_hit_ratio":        {sl.hitRatio, "ratio"},
		"sweepsvc.expand_s":            {sl.expandS, "s"},
		"sweepsvc.dedup_hits":          {float64(sl.dedupHits), "count"},
		"sweepsvc.warm_pass_ms.p90":    {sl.warmP90ms, "ms"},
		"sweepsvc.stream_mb":           {float64(sl.streamBytes) / (1 << 20), "MB"},
		"sweep.export_s":               {sl.exportS, "s"},
		"go.alloc_mb":                  {float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MB"},
		"go.gc_cycles":                 {float64(after.NumGC - before.NumGC), "count"},
		"trace.overhead_pct":           {100 * ratio(float64(tracedWall-plainWall), float64(plainWall)), "%"},
	}
	return m, ops, nil
}

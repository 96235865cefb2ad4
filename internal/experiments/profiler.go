package experiments

import (
	"fmt"
	"strings"
	"time"

	"cmpsched/internal/dag"
	"cmpsched/internal/profile"
	"cmpsched/internal/stats"
	"cmpsched/internal/workload"
)

// ProfilerComparisonResult reproduces the §6.1 measurement: profiling every
// task group of a Mergesort trace with the one-pass LruTree algorithm versus
// the multi-pass SetAssoc baseline (253 minutes vs 13.4 minutes, 18X, in the
// paper).  Wall-clock times here are for the scaled trace; the claim being
// reproduced is the order-of-magnitude relative gap and the reason for it
// (SetAssoc revisits each reference once per level of the group hierarchy).
type ProfilerComparisonResult struct {
	Tasks        int
	Groups       int
	Refs         int64
	LruTreeTime  time.Duration
	SetAssocTime time.Duration
	// AvgRevisits is how many times SetAssoc processed each reference on
	// average (the paper reports over 22).
	AvgRevisits float64
	// MaxWorkingSetMismatch is the largest relative difference between
	// the two profilers' per-group working sets (a cross-validation; the
	// stack model and the fully-associative simulation agree exactly).
	MaxWorkingSetMismatch float64
	Scale                 int64
}

// SpeedupX returns how many times faster LruTree ran than SetAssoc.
func (r *ProfilerComparisonResult) SpeedupX() float64 {
	if r.LruTreeTime <= 0 {
		return 0
	}
	return float64(r.SetAssocTime) / float64(r.LruTreeTime)
}

// ProfilerComparison profiles a Mergesort trace with both algorithms and
// times them.
func ProfilerComparison(opts Options) (*ProfilerComparisonResult, error) {
	msCfg := opts.mergesortConfig()
	if !opts.Quick {
		// A moderate trace keeps the multi-pass baseline's runtime in
		// tens of seconds while preserving the hierarchy depth that
		// causes its slowdown.
		msCfg.Elements = 256 << 10
		msCfg.TaskWorkingSetBytes = 8 << 10
	}
	d, tree, err := workload.NewMergesort(msCfg).Build()
	if err != nil {
		return nil, err
	}
	cfg := profile.Config{LineBytes: 128, CacheSizes: []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20}}

	// Record before timing, so both profilers read the same recorded
	// streams and neither pays for draining the generators.
	dag.Record(d, nil)
	start := time.Now()
	pr, err := profile.NewLruTree(cfg).ProfileDAG(d)
	if err != nil {
		return nil, err
	}
	lruStats := pr.AnnotateTree(tree)
	lruTime := time.Since(start)

	start = time.Now()
	sa := profile.NewSetAssoc(cfg, 1<<30) // fully associative, comparable to the stack model
	saStats, err := sa.AnnotateTree(d, tree)
	if err != nil {
		return nil, err
	}
	saTime := time.Since(start)

	var groupRefs int64
	maxMismatch := 0.0
	for id := range lruStats {
		groupRefs += saStats[id].Refs
		if lruStats[id].WorkingSetBytes > 0 {
			diff := float64(saStats[id].WorkingSetBytes-lruStats[id].WorkingSetBytes) / float64(lruStats[id].WorkingSetBytes)
			if diff < 0 {
				diff = -diff
			}
			if diff > maxMismatch {
				maxMismatch = diff
			}
		}
	}
	res := &ProfilerComparisonResult{
		Tasks:                 d.NumTasks(),
		Groups:                tree.NumGroups(),
		Refs:                  d.TotalRefs(),
		LruTreeTime:           lruTime,
		SetAssocTime:          saTime,
		MaxWorkingSetMismatch: maxMismatch,
		Scale:                 opts.effectiveScale(),
	}
	if res.Refs > 0 {
		res.AvgRevisits = float64(groupRefs) / float64(res.Refs)
	}
	return res, nil
}

// String renders the comparison.
func (r *ProfilerComparisonResult) String() string {
	var b strings.Builder
	b.WriteString("§6.1 working-set profiler comparison (LruTree vs SetAssoc)\n")
	t := stats.NewTable("metric", "value")
	t.AddRow("tasks", fmt.Sprint(r.Tasks))
	t.AddRow("task groups", fmt.Sprint(r.Groups))
	t.AddRow("references", fmt.Sprint(r.Refs))
	t.AddRow("LruTree (one pass)", r.LruTreeTime.String())
	t.AddRow("SetAssoc (multi pass)", r.SetAssocTime.String())
	t.AddRow("SetAssoc/LruTree speedup", fmt.Sprintf("%.1fX", r.SpeedupX()))
	t.AddRow("avg revisits per reference", fmt.Sprintf("%.1f", r.AvgRevisits))
	t.AddRow("max working-set mismatch", fmt.Sprintf("%.4f", r.MaxWorkingSetMismatch))
	b.WriteString(t.String())
	b.WriteString("\n")
	return b.String()
}

package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/experiments"
	"cmpsched/internal/imath"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
	"cmpsched/internal/workload"
)

// Workload names, as passed to --workload.
const (
	wlPaperFig2      = "paper-fig2"
	wlGraphIrregular = "graph-irregular"
	wlSweepdGrid     = "sweepd-grid"
)

var workloadNames = []string{wlPaperFig2, wlGraphIrregular, wlSweepdGrid}

// defaultSeed reproduces the figures exactly: it leaves GraphShape.Seed and
// HashJoinConfig.Seed at the values experiments uses.
const defaultSeed = 1

// scaleOpts mirrors the input sizing of package experiments, whose helpers
// are private.  The parity test pins this copy to experiments.Figure2 and
// experiments.IrregularComparison at quick scale.
type scaleOpts struct {
	quick bool
	seed  uint64
}

func (o scaleOpts) quickDiv() int64 {
	if o.quick {
		return 16
	}
	return 1
}

func (o scaleOpts) scale() int64 {
	if o.quick {
		return config.DefaultScale * 16
	}
	return config.DefaultScale
}

func (o scaleOpts) defaultConfig(cores int) (config.CMP, error) {
	c, err := config.Default(cores)
	if err != nil {
		return config.CMP{}, err
	}
	return c.Scaled(o.scale()), nil
}

// fixed wraps a workload's Build as a sweep build function.
func fixed(w workload.Workload) sweep.BuildFunc {
	return func() (*dag.DAG, error) {
		d, _, err := w.Build()
		return d, err
	}
}

// fig2Spec returns the build and canonical params of one Figure 2 workload.
// The seed only reaches Hash Join: Mergesort and LU have no random inputs.
func (o scaleOpts) fig2Spec(name string, cfg config.CMP) (sweep.BuildFunc, string, error) {
	switch name {
	case "mergesort":
		c := workload.MergesortConfig{
			Elements:            (1 << 20) / o.quickDiv(),
			TaskWorkingSetBytes: imath.Max(2<<10, (16<<10)/o.quickDiv()),
		}
		return fixed(workload.NewMergesort(c)), fmt.Sprintf("%+v", c), nil
	case "hashjoin":
		c := workload.HashJoinConfigForL2(cfg.L2.SizeBytes)
		c.PartitionBytes = (32 << 20) / o.quickDiv()
		c.Seed ^= o.seed - defaultSeed
		return fixed(workload.NewHashJoin(c)), fmt.Sprintf("%+v", c), nil
	case "lu":
		c := workload.LUConfig{N: 512, BlockElems: 32}
		if o.quick {
			c.N = 128
		}
		return fixed(workload.NewLU(c)), fmt.Sprintf("%+v", c), nil
	}
	return nil, "", fmt.Errorf("no figure-2 workload %q", name)
}

// graphSpec returns the build and canonical params of one graph kernel on
// one generator family.  The seed selects the edge set (and the kernels'
// own random priorities).
func (o scaleOpts) graphSpec(kernel, family string) (sweep.BuildFunc, string, error) {
	verts := int64(1 << 15)
	switch kernel {
	case "pagerank":
		verts = 1 << 13
	case "triangles":
		verts = 1 << 14
	}
	shape := workload.GraphShape{
		Family:   family,
		Vertices: imath.Max(1<<11, verts/o.quickDiv()),
		Seed:     o.seed,
	}
	if o.quick {
		shape.EdgesPerTask = 512
	}
	var w workload.Workload
	var params string
	switch kernel {
	case "bfs":
		k := workload.NewBFS(workload.BFSConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	case "sssp":
		k := workload.NewSSSP(workload.SSSPConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	case "pagerank":
		k := workload.NewPageRank(workload.PageRankConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	case "triangles":
		k := workload.NewTriangles(workload.TrianglesConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	case "connectivity":
		k := workload.NewConnectivity(workload.ConnectivityConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	case "kcore":
		k := workload.NewKCore(workload.KCoreConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	case "mis":
		k := workload.NewMIS(workload.MISConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	case "matching":
		k := workload.NewMatching(workload.MatchingConfig{Shape: shape})
		w, params = k, fmt.Sprintf("%+v", k.Config())
	default:
		return nil, "", fmt.Errorf("no graph kernel %q", kernel)
	}
	return fixed(w), params, nil
}

// fig2Jobs is the job list of experiments.Figure2, in its order: per
// workload and core count, the sequential baseline, then PDF, then WS.
func (o scaleOpts) fig2Jobs() ([]sweep.Job, []sweepsvc.Point, error) {
	var jobs []sweep.Job
	var points []sweepsvc.Point
	for _, wl := range experiments.Figure2Workloads() {
		for _, cores := range []int{1, 2, 4, 8, 16, 32} {
			if wl == "lu" && cores > 16 {
				continue
			}
			cfg, err := o.defaultConfig(cores)
			if err != nil {
				return nil, nil, err
			}
			build, params, err := o.fig2Spec(wl, cfg)
			if err != nil {
				return nil, nil, err
			}
			for _, sc := range []string{sweep.Sequential, "pdf", "ws"} {
				jobs = append(jobs, sweep.NewJob(wl, params, sc, cfg, build))
				points = append(points, sweepsvc.Point{Workload: wl, Scheduler: sc, Cores: cores})
			}
		}
	}
	return jobs, points, nil
}

// irregularJobs is the job list of experiments.IrregularComparison, in its
// order: kernels, then families, then topologies, then PDF and WS.
func (o scaleOpts) irregularJobs() ([]sweep.Job, []sweepsvc.Point, error) {
	const cores = 8
	base, err := o.defaultConfig(cores)
	if err != nil {
		return nil, nil, err
	}
	var jobs []sweep.Job
	var points []sweepsvc.Point
	for _, kernel := range experiments.GraphKernels() {
		for _, family := range experiments.IrregularFamilies() {
			build, params, err := o.graphSpec(kernel, family)
			if err != nil {
				return nil, nil, err
			}
			for _, topo := range experiments.IrregularTopologies() {
				cfg := base.WithTopology(topo)
				for _, sc := range []string{"pdf", "ws"} {
					jobs = append(jobs, sweep.NewJob(kernel, params, sc, cfg, build))
					points = append(points, sweepsvc.Point{Workload: kernel, Scheduler: sc, Topology: topo.String(), Cores: cores})
				}
			}
		}
	}
	return jobs, points, nil
}

// sweepdPoints is the sweepd-grid submission: every registered workload x
// {pdf, ws} x {shared, private} x {2, 8} cores, at quick scale.  The seed
// shuffles the submission order; rows are matched back by point.
func sweepdPoints(seed uint64) []sweepsvc.Point {
	var points []sweepsvc.Point
	for _, wl := range workload.Names() {
		for _, topo := range []cache.Topology{cache.Shared(), cache.Private()} {
			for _, cores := range []int{2, 8} {
				for _, sc := range []string{"pdf", "ws"} {
					points = append(points, sweepsvc.Point{Workload: wl, Scheduler: sc, Table: sweep.TableDefault, Topology: topo.String(), Cores: cores})
				}
			}
		}
	}
	if seed != defaultSeed {
		r := rand.New(rand.NewSource(int64(seed)))
		r.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	}
	return points
}

// buildTimer accumulates the host time spent inside jobs' Build functions:
// the setup_s metric.
type buildTimer struct {
	ns     atomic.Int64
	builds atomic.Int64
}

// wrap returns the jobs with every Build timed.  Keys are untouched, so the
// engine memoises templates exactly as it would for the unwrapped jobs.
func (bt *buildTimer) wrap(jobs []sweep.Job) []sweep.Job {
	out := make([]sweep.Job, len(jobs))
	for i, j := range jobs {
		build := j.Build
		j.Build = func() (*dag.DAG, error) {
			start := time.Now()
			d, err := build()
			bt.ns.Add(int64(time.Since(start)))
			bt.builds.Add(1)
			return d, err
		}
		out[i] = j
	}
	return out
}

func (bt *buildTimer) seconds() float64 { return float64(bt.ns.Load()) / 1e9 }

// gridJobs returns the job list of a figure workload, or of the sweepd grid
// expanded exactly as the service's default Expand would, with the points a
// submission names.
func gridJobs(name string, seed uint64, quick bool) ([]sweep.Job, []sweepsvc.Point, error) {
	o := scaleOpts{quick: quick, seed: seed}
	switch name {
	case wlPaperFig2:
		return o.fig2Jobs()
	case wlGraphIrregular:
		return o.irregularJobs()
	case wlSweepdGrid:
		req := &sweepsvc.Request{Points: sweepdPoints(seed), Quick: true}
		jobs, err := req.Jobs()
		return jobs, req.Points, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

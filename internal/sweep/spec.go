package sweep

import (
	"fmt"
	"math"
	"slices"

	"cmpsched/internal/cache"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/graph"
	"cmpsched/internal/sched"
	"cmpsched/internal/workload"
)

// WorkloadFactory produces a DAG builder and a canonical parameter
// fingerprint for a named workload on a configuration.  The experiment
// harness supplies a factory that sizes inputs the way the paper's runs do
// (see experiments.Options.WorkloadFactory); DefaultFactory builds each
// workload with its library defaults.
type WorkloadFactory func(name string, cfg config.CMP) (build BuildFunc, params string, err error)

// DefaultFactory builds workloads with their default parameters.
func DefaultFactory(name string, cfg config.CMP) (BuildFunc, string, error) {
	if _, err := workload.New(name); err != nil {
		return nil, "", err
	}
	build := func() (*dag.DAG, error) {
		w, err := workload.New(name)
		if err != nil {
			return nil, err
		}
		d, _, err := w.Build()
		return d, err
	}
	return build, "default", nil
}

// Configuration table names accepted by Spec.Tables and Point.Table.
const (
	TableDefault = "default" // Table 2, the scaling-technology configurations
	Table45nm    = "45nm"    // Table 3, the 45 nm single-technology design space
)

// Spec declares a design-space sweep: either a grid — the cross product of
// workloads, schedulers and CMP configurations — or an explicit Points list,
// each point one simulation job.  Scale, Quick and GraphRepr apply to both
// forms.
//
// Spec is also the wire form of a sweepd submission (sweepsvc.Request is a
// defined type over it), so the command line and the wire share one grid
// type and one expansion: the same grid produces the same job keys, and
// hence the same cache entries, whichever way it arrives.
type Spec struct {
	// Workloads lists benchmark names (see workload.Names).
	Workloads []string `json:"workloads,omitempty"`
	// Schedulers lists scheduler names; empty means {"pdf", "ws"}.
	Schedulers []string `json:"schedulers,omitempty"`
	// Tables lists configuration tables (TableDefault, Table45nm); empty
	// means {TableDefault}.
	Tables []string `json:"tables,omitempty"`
	// Cores restricts the core counts; empty means every core count the
	// selected tables define.
	Cores []int `json:"cores,omitempty"`
	// Topologies lists cache-topology encodings ("shared", "private",
	// "clustered:<k>"); empty means {"shared"}, the paper's machine.  Each
	// topology multiplies the grid and is folded into the configuration
	// fingerprint, so results for different topologies never share cache
	// entries.
	Topologies []string `json:"topologies,omitempty"`
	// Scale is the capacity scale factor (0 means config.DefaultScale).
	Scale int64 `json:"scale,omitempty"`
	// Quick shrinks inputs and caches a further 16x, mirroring the
	// experiment harness's quick mode.
	Quick bool `json:"quick,omitempty"`
	// Sequential also runs the one-core sequential baseline for every
	// (workload, configuration) point.
	Sequential bool `json:"sequential,omitempty"`
	// Points, when non-empty, is the explicit job list form; the grid axis
	// fields must then be empty.
	Points []Point `json:"points,omitempty"`
	// GraphRepr selects the host representation graph kernels walk
	// ("flat" or "compressed"; empty means flat).  It is read by the
	// factory that callers plug in (experiments.Options.GraphRepr).
	GraphRepr string `json:"graph_repr,omitempty"`
	// Factory builds the workloads; nil means DefaultFactory.
	Factory WorkloadFactory `json:"-"`
}

// Point is one explicit design-space point: exactly one simulation job.
// Zero-valued Table and Topology mean TableDefault and "shared".
type Point struct {
	// Workload names the benchmark.
	Workload string `json:"workload"`
	// Scheduler names the scheduler, or Sequential for the baseline.
	Scheduler string `json:"scheduler"`
	// Table names the configuration table ("" means TableDefault).
	Table string `json:"table,omitempty"`
	// Topology encodes the cache topology ("" means "shared").
	Topology string `json:"topology,omitempty"`
	// Cores selects the table configuration by core count.
	Cores int `json:"cores"`
}

// canonical fills the defaulted fields.
func (p Point) canonical() Point {
	if p.Table == "" {
		p.Table = TableDefault
	}
	if p.Topology == "" {
		p.Topology = cache.Shared().String()
	}
	return p
}

// machine resolves a canonical point's configuration at the given scale.
func (p Point) machine(scale int64) (config.CMP, error) {
	cfgs, err := tableConfigs(p.Table)
	if err != nil {
		return config.CMP{}, err
	}
	topo, err := cache.ParseTopology(p.Topology)
	if err != nil {
		return config.CMP{}, err
	}
	for _, c := range cfgs {
		if c.Cores == p.Cores {
			return c.Scaled(scale).WithTopology(topo), nil
		}
	}
	return config.CMP{}, fmt.Errorf("no %s configuration has %d cores", p.Table, p.Cores)
}

// EffectiveScale returns the capacity scale factor the spec implies,
// following the scale-factor convention of DESIGN.md.
func (s Spec) EffectiveScale() int64 {
	scale := s.Scale
	if scale == 0 {
		scale = config.DefaultScale
	}
	if s.Quick {
		scale *= 16
	}
	return scale
}

// tableConfigs returns the (unscaled) configurations of a named table, in
// the table's canonical order.
func tableConfigs(table string) ([]config.CMP, error) {
	switch table {
	case TableDefault:
		return config.Defaults(), nil
	case Table45nm:
		return config.SingleTech45All(), nil
	default:
		return nil, fmt.Errorf("unknown configuration table %q (want %q or %q)", table, TableDefault, Table45nm)
	}
}

// validScheduler accepts registry names (including parameterised spellings)
// and the sequential pseudo-scheduler.
func validScheduler(name string) error {
	if name == Sequential {
		return nil
	}
	_, err := sched.New(name)
	return err
}

// Validate checks every axis value against the live workload and scheduler
// registries and the configuration tables, without building anything.
func (s Spec) Validate() error {
	if s.Scale < 0 {
		return fmt.Errorf("sweep: negative scale %d", s.Scale)
	}
	if s.Scale > math.MaxInt64/16 {
		return fmt.Errorf("sweep: scale %d out of range", s.Scale)
	}
	switch s.GraphRepr {
	case "", graph.ReprFlat, graph.ReprCompressed:
	default:
		return fmt.Errorf("sweep: unknown graph representation %q (want %q or %q)", s.GraphRepr, graph.ReprFlat, graph.ReprCompressed)
	}
	if len(s.Points) > 0 {
		if len(s.Workloads) > 0 || len(s.Schedulers) > 0 || len(s.Tables) > 0 ||
			len(s.Topologies) > 0 || len(s.Cores) > 0 || s.Sequential {
			return fmt.Errorf("sweep: spec mixes points with grid axis fields")
		}
		for i, p := range s.Points {
			p = p.canonical()
			if _, err := workload.New(p.Workload); err != nil {
				return fmt.Errorf("sweep: point %d: %w", i, err)
			}
			if err := validScheduler(p.Scheduler); err != nil {
				return fmt.Errorf("sweep: point %d: %w", i, err)
			}
			if _, err := p.machine(1); err != nil {
				return fmt.Errorf("sweep: point %d: %w", i, err)
			}
		}
		return nil
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("sweep: spec has no workloads and no points")
	}
	for _, w := range s.Workloads {
		if _, err := workload.New(w); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, sc := range s.Schedulers {
		if err := validScheduler(sc); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, table := range s.Tables {
		if _, err := tableConfigs(table); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, topo := range s.Topologies {
		if _, err := cache.ParseTopology(topo); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// points returns the spec's point list: an explicit Points list
// canonicalised, or the grid flattened in its deterministic order —
// workloads outermost, then tables, then topologies, then core counts, then
// (sequential, schedulers...).
func (s Spec) points() ([]Point, error) {
	if len(s.Points) > 0 {
		out := make([]Point, len(s.Points))
		for i, p := range s.Points {
			out[i] = p.canonical()
		}
		return out, nil
	}
	schedulers := s.Schedulers
	if len(schedulers) == 0 {
		schedulers = []string{"pdf", "ws"}
	}
	if s.Sequential {
		schedulers = append([]string{Sequential}, schedulers...)
	}
	tables := s.Tables
	if len(tables) == 0 {
		tables = []string{TableDefault}
	}
	topologies := s.Topologies
	if len(topologies) == 0 {
		topologies = []string{cache.Shared().String()}
	}
	wantCores := func(c int) bool {
		return len(s.Cores) == 0 || slices.Contains(s.Cores, c)
	}
	var out []Point
	for _, wl := range s.Workloads {
		for _, table := range tables {
			cfgs, err := tableConfigs(table)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			matched := false
			for _, topo := range topologies {
				for _, base := range cfgs {
					if !wantCores(base.Cores) {
						continue
					}
					matched = true
					for _, sc := range schedulers {
						out = append(out, Point{Workload: wl, Scheduler: sc, Table: table, Topology: topo, Cores: base.Cores})
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("sweep: no %s configuration matches cores %v", table, s.Cores)
			}
		}
	}
	return out, nil
}

// Jobs validates the spec and expands it into its job list, one job per
// point in the order of points.  Grid and explicit points go through the
// same construction, so a grid and the equivalent point list produce
// identical keys.
func (s Spec) Jobs() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	points, err := s.points()
	if err != nil {
		return nil, err
	}
	factory := s.Factory
	if factory == nil {
		factory = DefaultFactory
	}
	scale := s.EffectiveScale()
	jobs := make([]Job, 0, len(points))
	// Consecutive points that differ only in scheduler share one machine
	// and one factory call.
	var (
		last   Point
		cfg    config.CMP
		build  BuildFunc
		params string
	)
	for i, p := range points {
		if i == 0 || p.Workload != last.Workload || p.Table != last.Table ||
			p.Topology != last.Topology || p.Cores != last.Cores {
			if cfg, err = p.machine(scale); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			if build, params, err = factory(p.Workload, cfg); err != nil {
				return nil, fmt.Errorf("sweep: %s on %s: %w", p.Workload, cfg.Name, err)
			}
			last = p
		}
		jobs = append(jobs, NewJob(p.Workload, params, p.Scheduler, cfg, build))
	}
	return jobs, nil
}

// Run expands the spec and executes it on an engine with the given options.
func (s Spec) Run(opts EngineOptions) ([]Result, error) {
	jobs, err := s.Jobs()
	if err != nil {
		return nil, err
	}
	return NewEngine(opts).Run(jobs)
}

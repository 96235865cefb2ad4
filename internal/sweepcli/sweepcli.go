// Package sweepcli is the command-line front end shared by the sweep
// commands: one binder for the grid flags of cmd/sweep and cmd/sweepctl, one
// -list printer (also used by cmd/sweepd), and the per-row progress line.
package sweepcli

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cmpsched/internal/config"
	"cmpsched/internal/sched"
	"cmpsched/internal/sweep"
	"cmpsched/internal/workload"
)

// Grid holds the grid flags bound to a flag set; after parsing, Spec turns
// them into a sweep.Spec.
type Grid struct {
	workloads, schedulers, tables, topology, cores, graphRepr *string
	scale                                                     *int64
	quick, seq                                                *bool
}

// Bind registers the grid flags (-workloads -schedulers -tables -topology
// -cores -scale -quick -seq -graph-repr) on fs.
func Bind(fs *flag.FlagSet) *Grid {
	return &Grid{
		workloads:  fs.String("workloads", "mergesort,hashjoin,lu", "comma-separated workloads: "+strings.Join(workload.Names(), ", ")),
		schedulers: fs.String("schedulers", "pdf,ws", "comma-separated schedulers: "+strings.Join(sched.Names(), ", ")),
		tables:     fs.String("tables", sweep.TableDefault, "configuration tables: default (Table 2), 45nm (Table 3)"),
		topology:   fs.String("topology", "shared", "comma-separated cache topologies: shared, private, clustered:<k>"),
		cores:      fs.String("cores", "", "comma-separated core counts (empty = all the tables define)"),
		scale:      fs.Int64("scale", config.DefaultScale, "capacity scale factor relative to the paper's configurations"),
		quick:      fs.Bool("quick", false, "use reduced inputs (seconds instead of minutes)"),
		seq:        fs.Bool("seq", false, "also run the sequential baseline per point"),
		graphRepr:  fs.String("graph-repr", "", "host representation for graph kernels: flat or compressed (empty = flat); the simulated trace is identical either way"),
	}
}

// Spec returns the parsed grid as a validated sweep.Spec with no Factory
// set.
func (g *Grid) Spec() (sweep.Spec, error) {
	var cores []int
	for _, f := range splitList(*g.cores) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("bad -cores: %w", err)
		}
		cores = append(cores, v)
	}
	s := sweep.Spec{
		Workloads:  splitList(*g.workloads),
		Schedulers: splitList(*g.schedulers),
		Tables:     splitList(*g.tables),
		Cores:      cores,
		Topologies: splitList(*g.topology),
		Scale:      *g.scale,
		Quick:      *g.quick,
		Sequential: *g.seq,
		GraphRepr:  *g.graphRepr,
	}
	return s, s.Validate()
}

// splitList splits a comma-separated flag value, dropping empty fields.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// PrintList writes every axis value a sweep accepts (-list).  Both name
// lists come straight from the live registries (workload.Names,
// sched.Names), already deterministically sorted, so late registrations and
// parameterised scheduler spellings show up without command changes.
func PrintList(w io.Writer) {
	fmt.Fprintf(w, "workloads:  %s\n", strings.Join(workload.Names(), ", "))
	fmt.Fprintf(w, "schedulers: %s (plus the %q sequential baseline)\n",
		strings.Join(sched.Names(), ", "), sweep.Sequential)
	fmt.Fprintf(w, "topologies: shared, private, clustered:<cores-per-slice>\n")
	fmt.Fprintf(w, "tables:     %s (Table 2), %s (Table 3)\n", sweep.TableDefault, sweep.Table45nm)
}

// RowLine formats the verbose progress line for the done-th of total
// finished rows.
func RowLine(done, total int, r sweep.Result) string {
	cached := ""
	if r.Cached {
		cached = " (cached)"
	}
	return fmt.Sprintf("[%d/%d] %s on %s: %d cycles%s", done, total, r.Key, r.Sim.Config.Name, r.Sim.Cycles, cached)
}

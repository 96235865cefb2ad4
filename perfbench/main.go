// Command perfbench is the repository's benchmark: it runs the paper's
// figure grids and a sweepd submission end to end and reports what a user
// waits for, or, with --trace 1, times each layer from its public functions
// in a serial traced run.  See README.md in this directory for the
// workloads, the metrics and the layer-to-metric map.
//
// Usage (from the repository root, through run.sh):
//
//	perfbench --workload paper-fig2|graph-irregular|sweepd-grid --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "input seed; the default reproduces the figures exactly")
	seconds := flag.Int("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the serial traced run and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch caches and the trace output")
	printDigests := flag.Bool("print-digests", false, "print every workload's grid digest at the default seed and exit")
	flag.Parse()

	if *printDigests {
		if err := printGridDigests(); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	dir := filepath.Join(*workdir, "run-"+strconv.Itoa(os.Getpid()))
	env, err := newRunEnv(*name, *seed, dir, time.Duration(*seconds)*time.Second)
	if err != nil {
		fatal(err)
	}
	var m map[string]metric
	var ops tally
	if *trace == 1 {
		m, ops, err = runTraced(env, filepath.Join(*workdir, "traces"))
	} else {
		m, ops, err = runE2E(env)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(report{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   m,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// procStatusMB reads one kB field of /proc/self/status, such as VmRSS or
// VmHWM, in MiB.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// printGridDigests runs every grid once at the default seed and prints the
// digests pinnedDigests should hold.
func printGridDigests() error {
	for _, name := range workloadNames {
		env, err := newRunEnv(name, defaultSeed, "", 0)
		if err != nil {
			return err
		}
		digests, _, err := serialPass(env, newSerialRunner(nil))
		if err != nil {
			return err
		}
		fmt.Printf("%s: %q,\n", name, gridDigest(digests))
	}
	return nil
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/sweep"
)

// pinnedDigests holds gridDigest of every workload at defaultSeed.  Every
// run at the default seed must reproduce its digest, and so must the sweepd
// grid at any seed (the seed only reorders it); a mismatch counts as a
// failed operation.  Regenerate with
// `go run . --print-digests` after a change that is meant to move a
// simulated counter.
var pinnedDigests = map[string]string{
	wlPaperFig2:      "63a471924400d1fd0415c436ebf67e7237b9e4178a1927aa12789916c4041853",
	wlGraphIrregular: "a2cafe21274c8b653c51f7376e59c698171c1e207a48760b903d56ae80c5ea4f",
	wlSweepdGrid:     "841021e576c9c08b9f139306362ed05128c0b08e1db82e104b4f3ffcaa031960",
}

// jobDigest hashes a job's key and every simulated counter of its result:
// cycles, instructions, references, L1, L2 and per-slice statistics, memory
// and per-port statistics, core busy cycles, task count and scheduler
// metrics.  Per-task stats are excluded (the engine drops them), and so is
// host time.
func jobDigest(k sweep.Key, r *cmpsim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%+v|%+v|%+v|%+v|%+v|%v|%v|%d|",
		k.Hash(), r.Scheduler, r.Cycles, r.Instructions, r.Refs,
		r.L1, r.L2, r.L2Slices, r.Mem, r.MemPorts, r.MemUtilization,
		r.CoreBusyCycles, r.TasksExecuted)
	names := make([]string, 0, len(r.SchedMetrics))
	for name := range r.SchedMetrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d,", name, r.SchedMetrics[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridDigest folds per-job digests into one.  It sorts them first, so the
// sweepd grid's digest does not depend on the seed's shuffle.
func gridDigest(jobDigests []string) string {
	sorted := append([]string(nil), jobDigests...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, d := range sorted {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

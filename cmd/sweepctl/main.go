// Command sweepctl is the client for sweepd: it submits a design-space grid
// over HTTP, streams result rows as simulations finish, and writes them with
// the same exporters cmd/sweep uses — so a grid swept through a server is
// byte-comparable with one swept locally.
//
// Usage:
//
//	sweepctl -workloads mergesort,hashjoin -quick
//	sweepctl -server http://host:8357 -workloads bfs -graph-repr compressed -quick
//	sweepctl -workloads lu -seq -format json -o lu.json
//	sweepctl -list                                  # axis values
//
// The grid flags are cmd/sweep's own, bound by the same code, and the grid
// travels as one sweep.Spec: the server expands it exactly as cmd/sweep
// would, and every row lands at its job index, so the output is in the same
// deterministic Key order a local run produces, whatever order the server
// finished in.  A job that fails in simulation is reported and makes
// sweepctl exit non-zero; the other rows are still written.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepcli"
	"cmpsched/internal/sweepsvc"
)

func main() {
	grid := sweepcli.Bind(flag.CommandLine)
	var (
		server     = flag.String("server", "http://127.0.0.1:8357", "sweepd base URL")
		list       = flag.Bool("list", false, "print the available workloads, schedulers, topologies and configuration tables, then exit")
		format     = flag.String("format", "csv", "output format: csv or json")
		out        = flag.String("o", "", "output file (empty = stdout)")
		verbose    = flag.Bool("v", false, "log each received row to stderr")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "limit on connecting and receiving response headers (the result stream itself is unbounded)")
	)
	flag.Parse()

	if *list {
		sweepcli.PrintList(os.Stdout)
		return
	}
	if *format != "csv" && *format != "json" {
		fatalf("unknown format %q (want csv or json)", *format)
	}
	// Validate locally against the same registries the server consults, so
	// typos fail here with the full diagnosis instead of as an HTTP 400.
	spec, err := grid.Spec()
	if err != nil {
		fatalf("%v", err)
	}

	cl := &client{
		server:  *server,
		verbose: *verbose,
		http:    &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: *reqTimeout}},
	}
	req := sweepsvc.Request(spec)
	results, failures, err := cl.run(&req)

	w := os.Stdout
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			fatalf("%v", cerr)
		}
		defer f.Close()
		w = f
	}
	// The exporters skip unfilled rows, so partial output on failure is
	// still well-formed.
	var werr error
	switch *format {
	case "csv":
		werr = sweep.WriteCSV(w, results)
	case "json":
		werr = sweep.WriteJSON(w, results)
	}
	if werr != nil {
		fatalf("write %s: %v", *format, werr)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "sweepctl: %s\n", f)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if len(failures) > 0 {
		fatalf("%d of %d jobs failed", len(failures), len(results))
	}
}

// client streams sweeps from one sweepd.
type client struct {
	server  string
	verbose bool
	http    *http.Client
}

// run submits one request and decodes its NDJSON event stream.  It returns
// the rows in job order (a failed job's row stays zero), one message per job
// that failed in simulation, and an error when the submission was rejected
// or the stream broke before its done event.
func (c *client) run(req *sweepsvc.Request) (results []sweep.Result, failures []string, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.http.Post(strings.TrimSuffix(c.server, "/")+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, nil, fmt.Errorf("server rejected the sweep (%s): %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	done := 0
	start := time.Now()
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev sweepsvc.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return results, failures, fmt.Errorf("bad event %q: %w", line, err)
		}
		switch ev.Type {
		case sweepsvc.EventAccepted:
			results = make([]sweep.Result, ev.Total)
			if c.verbose {
				fmt.Fprintf(os.Stderr, "sweepctl: sweep %s accepted, %d jobs\n", ev.SweepID, ev.Total)
			}
		case sweepsvc.EventResult:
			if ev.Index < 0 || ev.Index >= len(results) {
				return results, failures, fmt.Errorf("event index %d outside the sweep's %d jobs", ev.Index, len(results))
			}
			done++
			if ev.Err != "" {
				failures = append(failures, fmt.Sprintf("job %d: %s", ev.Index, ev.Err))
				continue
			}
			if ev.Result != nil {
				results[ev.Index] = *ev.Result
				if c.verbose {
					fmt.Fprintf(os.Stderr, "sweepctl: %s\n", sweepcli.RowLine(done, len(results), *ev.Result))
				}
			}
		case sweepsvc.EventCancelled:
			return results, failures, fmt.Errorf("sweep cancelled server-side after %d of %d rows", done, len(results))
		case sweepsvc.EventDone:
			if c.verbose && ev.Summary != nil {
				fmt.Fprintf(os.Stderr, "sweepctl: done, %d completed, %d failed, %d dedup hits in %.2fs\n",
					ev.Summary.Completed, ev.Summary.Failed, ev.Summary.DedupHits, time.Since(start).Seconds())
			}
			return results, failures, nil
		}
	}
	if err := sc.Err(); err != nil {
		return results, failures, fmt.Errorf("stream broke: %w", err)
	}
	return results, failures, fmt.Errorf("stream ended without a done event")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweepctl: "+format+"\n", args...)
	os.Exit(1)
}

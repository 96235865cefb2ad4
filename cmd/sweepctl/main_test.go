package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
	"cmpsched/internal/workload"
)

// testCfg returns a small simulatable configuration.
func testCfg(t *testing.T) config.CMP {
	t.Helper()
	for _, c := range config.Defaults() {
		if c.Cores == 2 {
			return c.Scaled(config.DefaultScale * 16)
		}
	}
	t.Fatal("no 2-core default configuration")
	return config.CMP{}
}

// newTestServer starts a real sweep service whose expander maps each
// submitted point to a milliseconds-scale job (deterministic per point).
// failPoint, when non-empty, names a workload whose build fails — the
// job-error case.
func newTestServer(t *testing.T, failPoint string) *httptest.Server {
	t.Helper()
	cfg := testCfg(t)
	svc := sweepsvc.NewService(sweepsvc.Options{Workers: 2})
	h := sweepsvc.NewHandler(svc)
	h.Expand = func(r *sweepsvc.Request) ([]sweep.Job, error) {
		jobs := make([]sweep.Job, len(r.Points))
		for i, p := range r.Points {
			build := func() (*dag.DAG, error) {
				if p.Workload == failPoint {
					return nil, fmt.Errorf("injected build failure for %s", p.Workload)
				}
				d, _, err := workload.NewMergesort(workload.MergesortConfig{
					Elements: 1 << 10, TaskWorkingSetBytes: 1 << 10}).Build()
				return d, err
			}
			jobs[i] = sweep.NewJob(p.Workload, fmt.Sprintf("%+v", p), p.Scheduler, cfg, build)
		}
		return jobs, nil
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// testPoints returns n distinct points (each is its own sweep.Key).  The
// workload names must pass the server's registry validation, so they come
// from the real registry; the test expander builds the same tiny DAG for all
// of them regardless.
func testPoints(t *testing.T, n int) []sweepsvc.Point {
	t.Helper()
	names := workload.Names()
	schedulers := []string{"pdf", "ws"}
	if n > len(names)*len(schedulers) {
		t.Fatalf("testPoints: %d exceeds the %d distinct combinations", n, len(names)*len(schedulers))
	}
	pts := make([]sweepsvc.Point, n)
	for i := range pts {
		pts[i] = sweepsvc.Point{
			Workload:  names[i%len(names)],
			Scheduler: schedulers[i/len(names)],
			Cores:     2,
		}
	}
	return pts
}

func newTestClient(server string) *client {
	return &client{server: server, http: &http.Client{}}
}

// TestClientStreamsRowsInJobOrder: rows finish in any order on the server's
// two runners but land at their job index.
func TestClientStreamsRowsInJobOrder(t *testing.T) {
	points := testPoints(t, 12)
	srv := newTestServer(t, "")
	results, failures, err := newTestClient(srv.URL).run(&sweepsvc.Request{Points: points})
	if err != nil || len(failures) != 0 {
		t.Fatalf("run: failures=%v err=%v", failures, err)
	}
	if len(results) != len(points) {
		t.Fatalf("%d rows for %d points", len(results), len(points))
	}
	for i, r := range results {
		if r.Sim == nil || r.Key.Workload != points[i].Workload || r.Key.Scheduler != points[i].Scheduler {
			t.Fatalf("row %d = %+v, want %s/%s", i, r.Key, points[i].Workload, points[i].Scheduler)
		}
	}
}

// TestClientJobErrorIsTerminal: a job that fails in simulation is reported
// once, and every other row still arrives.
func TestClientJobErrorIsTerminal(t *testing.T) {
	points := testPoints(t, 4)
	srv := newTestServer(t, points[1].Workload)

	results, failures, err := newTestClient(srv.URL).run(&sweepsvc.Request{Points: points})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], points[1].Workload) {
		t.Fatalf("failures = %v, want exactly the %s build failure", failures, points[1].Workload)
	}
	for i, r := range results {
		if i == 1 {
			if r.Sim != nil {
				t.Fatal("failed point has a row")
			}
			continue
		}
		if r.Sim == nil {
			t.Fatalf("point %d missing its row", i)
		}
	}
}

// TestClientReportsRejection: a submission the server refuses comes back as
// an error carrying the server's diagnosis.
func TestClientReportsRejection(t *testing.T) {
	srv := newTestServer(t, "")
	_, _, err := newTestClient(srv.URL).run(&sweepsvc.Request{Points: []sweepsvc.Point{{Workload: "nope", Scheduler: "pdf", Cores: 2}}})
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want a 400 naming the bad workload", err)
	}
}

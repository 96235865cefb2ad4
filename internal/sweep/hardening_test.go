package sweep

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/config"
	"cmpsched/internal/dag"
)

func hardeningCfg(t *testing.T) config.CMP {
	t.Helper()
	for _, c := range config.Defaults() {
		if c.Cores == 2 {
			return c.Scaled(config.DefaultScale)
		}
	}
	t.Fatal("no 2-core default configuration")
	return config.CMP{}
}

// TestRunJobRecoversPanic: a panicking job must surface as that job's error,
// not kill the worker (and, transitively, a sweepd daemon).
func TestRunJobRecoversPanic(t *testing.T) {
	cfg := hardeningCfg(t)
	j := NewJob("panicky", "p", "pdf", cfg, func() (*dag.DAG, error) {
		panic("workload bug")
	})
	_, err := NewEngine(EngineOptions{Workers: 1}).Run([]Job{j})
	if err == nil || !strings.Contains(err.Error(), "build: panicked: workload bug") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}

	// The pool path recovers too, and healthy jobs around the panicking one
	// still complete.
	build, params, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := NewJob("mergesort", params, "pdf", cfg, build)
	results, err := NewEngine(EngineOptions{Workers: 2}).Run([]Job{good, j})
	if err == nil || !strings.Contains(err.Error(), "build: panicked: workload bug") {
		t.Fatalf("pool err = %v, want the recovered panic", err)
	}
	if results[0].Sim == nil {
		t.Fatal("healthy job's result was lost to the panicking one")
	}
}

// TestFailedBuildFailsEveryJobOfTheTemplate: a template build that panics
// or returns a nil DAG must fail every job sharing the template with the
// same build error — not the first job with the panic and the rest with a
// nil-pointer dereference on an empty template.
func TestFailedBuildFailsEveryJobOfTheTemplate(t *testing.T) {
	cfg := hardeningCfg(t)
	for _, tc := range []struct {
		name  string
		build BuildFunc
		want  string
	}{
		{"panic", func() (*dag.DAG, error) { panic("boom") }, "build: panicked: boom"},
		{"nil DAG", func() (*dag.DAG, error) { return nil, nil }, "build: returned a nil DAG"},
	} {
		e := NewEngine(EngineOptions{Workers: 1})
		// Two schedulers and two machines, one (workload, params) template.
		jobs := []Job{
			NewJob("bad", "p", "pdf", cfg, tc.build),
			NewJob("bad", "p", "ws", cfg, tc.build),
			NewJob("bad", "p", "pdf", cfg.WithL2HitLatency(19), tc.build),
		}
		var first string
		for i, j := range jobs {
			_, err := e.runJob(j)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("%s: job %d: err = %v, want %q", tc.name, i, err, tc.want)
			}
			if i == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s: job %d reports %q, job 0 reported %q", tc.name, i, err, first)
			}
		}
	}
}

// TestJobTimeoutCancelsRunawaySimulation: with a vanishingly small
// JobTimeout every real simulation exceeds its budget and fails with a
// timeout error (wrapping cmpsim.ErrCancelled) instead of running on.
func TestJobTimeoutCancelsRunawaySimulation(t *testing.T) {
	cfg := hardeningCfg(t)
	build, params, err := testFactory("mergesort", cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob("mergesort", params, "pdf", cfg, build)
	eng := NewEngine(EngineOptions{Workers: 1, JobTimeout: time.Nanosecond})
	_, err = eng.Run([]Job{j})
	if err == nil || !errors.Is(err, cmpsim.ErrCancelled) {
		t.Fatalf("err = %v, want a timeout wrapping cmpsim.ErrCancelled", err)
	}
	if !strings.Contains(err.Error(), "exceeded timeout") {
		t.Fatalf("err = %v, want the timeout phrasing", err)
	}

	// A generous timeout does not perturb results: same rows as no timeout.
	fast := NewEngine(EngineOptions{Workers: 1, JobTimeout: time.Hour})
	withTimeout, err := fast.Run([]Job{j})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine(EngineOptions{Workers: 1}).Run([]Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if withTimeout[0].Sim.Cycles != plain[0].Sim.Cycles {
		t.Fatalf("timeout changed the simulation: %d vs %d cycles",
			withTimeout[0].Sim.Cycles, plain[0].Sim.Cycles)
	}
}

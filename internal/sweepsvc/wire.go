package sweepsvc

import (
	"encoding/json"
	"fmt"
	"io"

	"cmpsched/internal/experiments"
	"cmpsched/internal/sweep"
)

// Request is the wire encoding of one submission: a sweep.Spec, either a
// declarative grid or an explicit Points list, with Scale, Quick and
// GraphRepr applying to both forms.
//
// The encoding is strict by design: unknown JSON fields are rejected at
// decode, axis values are validated against the live workload/scheduler
// registries before any job is admitted, and jobs are constructed through
// the same expansion and workload factory cmd/sweep uses — so a grid
// submitted over the wire produces byte-identical sweep.Keys (and hence
// shares cache entries) with the same grid run on the CLI.
type Request sweep.Spec

// Point is one explicit design-space point: exactly one simulation job.
type Point = sweep.Point

// DecodeRequest reads one strict-JSON Request: unknown fields, trailing
// data and type mismatches are errors, so malformed submissions fail before
// admission instead of silently sweeping a different grid.
func DecodeRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("sweepsvc: decode request: %w", err)
	}
	// A second Decode distinguishes EOF (good) from trailing garbage.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("sweepsvc: trailing data after request body")
	}
	return &req, nil
}

// Validate checks every axis value against the live registries and tables
// (sweep.Spec.Validate).
func (r *Request) Validate() error { return r.spec().Validate() }

// Jobs expands the request into its sweep job list.  Jobs are built through
// the experiment harness's workload factory at the request's Scale, Quick
// and GraphRepr — the parameterisation cmd/sweep applies — so wire
// submissions carry keys identical to CLI runs and the two share cache
// entries.
func (r *Request) Jobs() ([]sweep.Job, error) { return r.spec().Jobs() }

// NumJobs returns the number of jobs Jobs would expand the request into,
// without expanding it (sweep.Spec.NumJobs).
func (r *Request) NumJobs() (int, error) { return sweep.Spec(*r).NumJobs() }

// spec returns the request as a sweep.Spec with the experiments factory
// plugged in (unless the caller set one).
func (r *Request) spec() sweep.Spec {
	s := sweep.Spec(*r)
	if s.Factory == nil {
		s.Factory = experiments.Options{Scale: s.Scale, Quick: s.Quick, GraphRepr: s.GraphRepr}.WorkloadFactory()
	}
	return s
}

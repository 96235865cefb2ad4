// Package sweepsvc is the sweep engine as a long-running, single-process
// service: a transport-neutral job server over sweep.Engine plus an
// HTTP/JSON binding (see http.go) whose requests are sweep.Specs (see
// wire.go).
//
// The service exists for the shared-channel amortisation argument the
// broadcast-scheduling literature makes: N clients asking for overlapping
// design-space points should cost one computation per distinct point, not N.
// Three layers deliver that.  The engine's content-addressed result cache
// serves points computed in the past; the engine's DAG-template memoisation
// shares builds between points of one grid; and the service's single-flight
// layer deduplicates points that are queued or running right now — two
// clients submitting overlapping grids concurrently each wait on the same
// in-flight job (keyed by sweep.Key) and both receive its row when it
// completes.
//
// The service is explicitly bounded: a fixed runner pool, a bounded queue of
// unstarted jobs, a cap on concurrently active sweeps and on jobs per
// submission.  Submissions that would exceed a bound fail fast with a
// SaturatedError carrying a retry hint (HTTP maps it to 429 + Retry-After)
// instead of queueing without limit.  Cancellation drops a sweep's claim on
// its unstarted jobs; jobs already running finish (their results are
// cacheable) but deliver to nobody.  Drain stops admission, lets the backlog
// finish, and then stops the runners, so SIGTERM never truncates a row.
package sweepsvc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cmpsched/internal/obs"
	"cmpsched/internal/sweep"
)

// Options configure a Service.
type Options struct {
	// Workers is the number of concurrent job runners.  Zero means one per
	// host CPU (the sweep engine's convention).
	Workers int
	// MaxQueue bounds the number of admitted-but-unstarted jobs across all
	// sweeps.  A submission whose new (non-deduplicated) jobs would exceed
	// the bound is rejected with a SaturatedError.  Zero means 1024.
	MaxQueue int
	// MaxSweeps bounds the number of concurrently active sweeps.  Zero
	// means 64.
	MaxSweeps int
	// MaxJobsPerSweep bounds one submission's job count.  Zero means 4096.
	MaxJobsPerSweep int
	// RetryAfter is the backoff hint attached to SaturatedErrors.  Zero
	// means one second.
	RetryAfter time.Duration
	// Cache, when non-nil, memoises finished jobs across sweeps and (with
	// a disk cache) across processes.
	Cache sweep.Cache
	// Metrics receives service and engine metrics.  Nil means a private
	// registry (the service always accounts; Metrics only chooses where).
	Metrics *obs.Registry
	// JobTimeout, when positive, bounds each job's simulation wall-clock
	// time (sweep.EngineOptions.JobTimeout): a runaway simulation is
	// cancelled and reported as that job's failed row instead of wedging a
	// runner forever.
	JobTimeout time.Duration
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 64
	}
	if o.MaxJobsPerSweep <= 0 {
		o.MaxJobsPerSweep = 4096
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// ErrDraining rejects submissions while the service shuts down.
var ErrDraining = errors.New("sweepsvc: draining, not accepting new sweeps")

// SaturatedError reports that a submission was rejected by admission
// control; RetryAfter is the suggested backoff.  HTTP maps it to
// 429 Too Many Requests with a Retry-After header.
type SaturatedError struct {
	// Reason says which bound rejected the submission.
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *SaturatedError) Error() string {
	return fmt.Sprintf("sweepsvc: saturated: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// LimitError reports a submission that is invalid regardless of load (e.g.
// over the per-sweep job limit); retrying does not help.  HTTP maps it to
// 400 Bad Request.
type LimitError struct {
	// Reason says which limit the submission broke.
	Reason string
}

// Error implements error.
func (e *LimitError) Error() string { return "sweepsvc: " + e.Reason }

// EventType discriminates the events of a sweep's stream.
type EventType string

// The event types, in stream order: one EventAccepted, zero or more
// EventResult, then exactly one terminal EventDone or EventCancelled.
const (
	// EventAccepted opens every stream, carrying the sweep ID and total.
	EventAccepted EventType = "accepted"
	// EventResult reports one finished job (Result on success, Err on
	// simulation failure), with running Done/Failed progress counts.
	EventResult EventType = "result"
	// EventDone terminates a completed sweep's stream with its Summary.
	EventDone EventType = "done"
	// EventCancelled terminates a cancelled sweep's stream; the Summary
	// covers the jobs that completed before cancellation.
	EventCancelled EventType = "cancelled"
)

// Event is one message of a sweep's result stream; it is the NDJSON/SSE
// wire unit of the HTTP binding.
type Event struct {
	// Type discriminates the event.
	Type EventType `json:"type"`
	// SweepID names the sweep the event belongs to.
	SweepID string `json:"sweep_id"`
	// Index is the job's position in the submitted job list (meaningful on
	// EventResult only); clients reassemble deterministic row order from it.
	Index int `json:"index"`
	// Done counts the jobs finished successfully so far.
	Done int `json:"done"`
	// Failed counts the jobs that failed so far.
	Failed int `json:"failed,omitempty"`
	// Total is the sweep's job count.
	Total int `json:"total"`
	// Result carries the finished job's row on EventResult.
	Result *sweep.Result `json:"result,omitempty"`
	// Err carries the job's error text when it failed.
	Err string `json:"error,omitempty"`
	// Summary is attached to the terminal event.
	Summary *Summary `json:"summary,omitempty"`
}

// Summary is the terminal accounting of one sweep.
type Summary struct {
	// Jobs is the submitted job count.
	Jobs int `json:"jobs"`
	// Completed counts jobs that finished successfully.
	Completed int `json:"completed"`
	// Failed counts jobs whose simulation failed.
	Failed int `json:"failed"`
	// DedupHits counts jobs served by subscribing to another sweep's
	// queued or running job instead of enqueueing their own.
	DedupHits int `json:"dedup_hits"`
	// CacheHits counts jobs served from the result cache.
	CacheHits int `json:"cache_hits"`
	// ElapsedNS is the sweep's wall-clock time in this service.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// Status is a point-in-time snapshot of an active sweep.
type Status struct {
	// ID is the sweep's identifier.
	ID string `json:"id"`
	// Total is the sweep's job count.
	Total int `json:"total"`
	// Done counts jobs finished successfully.
	Done int `json:"done"`
	// Failed counts jobs that failed.
	Failed int `json:"failed"`
	// DedupHits counts submit-time single-flight subscriptions.
	DedupHits int `json:"dedup_hits"`
}

// flightState is a flight's lifecycle position.
type flightState int

const (
	flightQueued flightState = iota
	flightRunning
	flightDone
)

// flightSub is one sweep's claim on a flight's outcome: the sweep and the
// job's index within it.
type flightSub struct {
	sw    *Sweep
	index int
}

// flight is one in-flight (queued or running) distinct job, shared by every
// sweep that submitted its key — the single-flight unit.  All fields after
// job/hash are guarded by the Service mutex.
type flight struct {
	job   sweep.Job
	hash  string
	state flightState
	subs  []flightSub
}

// Sweep is one accepted submission: a handle streaming the submission's
// events.  The stream is the buffered Events channel; its capacity covers
// every event the sweep can emit, so the service never blocks on a slow or
// departed consumer.
type Sweep struct {
	svc *Service
	id  string

	// Guarded by svc.mu.
	total     int
	done      int
	failed    int
	dedup     int
	cacheHits int
	start     time.Time
	closed    bool
	flights   []*flight
	events    chan Event
}

// ID returns the sweep's service-unique identifier.
func (sw *Sweep) ID() string { return sw.id }

// Events returns the sweep's event stream: one EventAccepted, an EventResult
// per job in completion order, and a terminal EventDone or EventCancelled,
// after which the channel is closed.
func (sw *Sweep) Events() <-chan Event { return sw.events }

// serviceMetrics holds the service's registry handles.
type serviceMetrics struct {
	sweepsAccepted, sweepsRejected     *obs.Counter
	sweepsCompleted, sweepsCancelled   *obs.Counter
	jobsSubmitted, jobsDeduped         *obs.Counter
	jobsCompleted, jobsFailed          *obs.Counter
	jobsSkipped                        *obs.Counter
	queueDepth, inflight, activeSweeps *obs.Gauge
}

func newServiceMetrics(reg *obs.Registry) serviceMetrics {
	return serviceMetrics{
		sweepsAccepted:  reg.Counter("svc.sweeps_accepted"),
		sweepsRejected:  reg.Counter("svc.sweeps_rejected"),
		sweepsCompleted: reg.Counter("svc.sweeps_completed"),
		sweepsCancelled: reg.Counter("svc.sweeps_cancelled"),
		jobsSubmitted:   reg.Counter("svc.jobs_submitted"),
		jobsDeduped:     reg.Counter("svc.jobs_deduped"),
		jobsCompleted:   reg.Counter("svc.jobs_completed"),
		jobsFailed:      reg.Counter("svc.jobs_failed"),
		jobsSkipped:     reg.Counter("svc.jobs_skipped"),
		queueDepth:      reg.Gauge("svc.queue_depth"),
		inflight:        reg.Gauge("svc.inflight_jobs"),
		activeSweeps:    reg.Gauge("svc.active_sweeps"),
	}
}

// Service is the transport-neutral sweep job server.  One Service owns one
// sweep.Engine (hence one DAG-template store and one result cache) and a
// fixed runner pool; Submit adds jobs, deduplicating against everything
// queued or running.
type Service struct {
	opts   Options
	engine *sweep.Engine
	reg    *obs.Registry
	sm     serviceMetrics
	birth  time.Time

	queue chan *flight
	wg    sync.WaitGroup

	mu       sync.Mutex
	flights  map[string]*flight
	sweeps   map[string]*Sweep
	pending  int // flights admitted but not yet picked up by a runner
	running  int // flights being simulated
	seq      int64
	draining bool
}

// NewService starts a service: the runner pool is live on return.
func NewService(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:    opts,
		reg:     opts.Metrics,
		sm:      newServiceMetrics(opts.Metrics),
		birth:   time.Now(),
		queue:   make(chan *flight, opts.MaxQueue),
		flights: make(map[string]*flight),
		sweeps:  make(map[string]*Sweep),
	}
	s.engine = sweep.NewEngine(sweep.EngineOptions{
		Workers:    opts.Workers,
		Cache:      opts.Cache,
		Metrics:    opts.Metrics,
		JobTimeout: opts.JobTimeout,
	})
	for i := 0; i < s.engine.Workers(); i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// Metrics returns the service's registry (engine and service metrics both).
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Uptime returns the time since the service started.
func (s *Service) Uptime() time.Duration { return time.Since(s.birth) }

// CacheStats reports the result cache's hit/miss counters (zeros without a
// cache).
func (s *Service) CacheStats() (hits, misses int64) {
	if s.opts.Cache == nil {
		return 0, 0
	}
	return s.opts.Cache.Stats()
}

// Draining reports whether the service has stopped admitting sweeps.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// updateGauges publishes the queue/in-flight/active gauges; callers hold mu.
func (s *Service) updateGauges() {
	s.sm.queueDepth.Set(int64(s.pending))
	s.sm.inflight.Set(int64(s.running))
	s.sm.activeSweeps.Set(int64(len(s.sweeps)))
}

// checkJobCount rejects, with a LimitError, a sweep of n jobs over the
// per-sweep limit.
func (s *Service) checkJobCount(n int) error {
	if n > s.opts.MaxJobsPerSweep {
		s.sm.sweepsRejected.Add(1)
		return &LimitError{Reason: fmt.Sprintf("%d jobs exceeds the per-sweep limit of %d", n, s.opts.MaxJobsPerSweep)}
	}
	return nil
}

// Submit admits a job list as one sweep, deduplicating each job against
// every queued or running job service-wide: a duplicated key subscribes to
// the existing flight instead of consuming queue capacity, so overlapping
// concurrent submissions each simulate the overlap once.  The returned
// Sweep's event stream is already primed with its EventAccepted.
//
// Submit rejects with ErrDraining after Drain begins, a LimitError over the
// per-sweep job limit, and a SaturatedError when the sweep or queue bound is
// hit.  Rejections are atomic: no partial jobs are admitted.
func (s *Service) Submit(jobs []sweep.Job) (*Sweep, error) {
	if len(jobs) == 0 {
		return nil, &LimitError{Reason: "empty job list"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.sm.sweepsRejected.Add(1)
		return nil, ErrDraining
	}
	if err := s.checkJobCount(len(jobs)); err != nil {
		return nil, err
	}
	if len(s.sweeps) >= s.opts.MaxSweeps {
		s.sm.sweepsRejected.Add(1)
		return nil, &SaturatedError{
			Reason:     fmt.Sprintf("%d active sweeps at the limit of %d", len(s.sweeps), s.opts.MaxSweeps),
			RetryAfter: s.opts.RetryAfter,
		}
	}
	// Admission is all-or-nothing: count the queue slots the submission
	// needs (deduplicated jobs need none) before touching any state.
	fresh := 0
	seen := make(map[string]bool, len(jobs))
	for i := range jobs {
		h := jobs[i].Key.Hash()
		if s.flights[h] == nil && !seen[h] {
			seen[h] = true
			fresh++
		}
	}
	if s.pending+fresh > s.opts.MaxQueue {
		s.sm.sweepsRejected.Add(1)
		return nil, &SaturatedError{
			Reason:     fmt.Sprintf("%d queued + %d new jobs exceeds the queue bound of %d", s.pending, fresh, s.opts.MaxQueue),
			RetryAfter: s.opts.RetryAfter,
		}
	}

	s.seq++
	sw := &Sweep{
		svc:   s,
		id:    fmt.Sprintf("s%06d", s.seq),
		total: len(jobs),
		start: time.Now(),
		// Capacity for the full stream (accepted + one result per job +
		// terminal) keeps delivery non-blocking forever: a consumer that
		// stops reading can never back up a runner.
		events: make(chan Event, len(jobs)+2),
	}
	var enqueue []*flight
	for i := range jobs {
		h := jobs[i].Key.Hash()
		f := s.flights[h]
		if f == nil {
			f = &flight{job: jobs[i], hash: h}
			s.flights[h] = f
			enqueue = append(enqueue, f)
			s.pending++
		} else {
			sw.dedup++
			s.sm.jobsDeduped.Add(1)
		}
		f.subs = append(f.subs, flightSub{sw: sw, index: i})
		sw.flights = append(sw.flights, f)
	}
	s.sweeps[sw.id] = sw
	s.sm.sweepsAccepted.Add(1)
	s.sm.jobsSubmitted.Add(int64(len(jobs)))
	sw.events <- Event{Type: EventAccepted, SweepID: sw.id, Total: sw.total}
	// The queue's capacity equals MaxQueue and pending <= MaxQueue is the
	// admission invariant, so these sends cannot block under the lock.
	for _, f := range enqueue {
		s.queue <- f
	}
	s.updateGauges()
	return sw, nil
}

// runner is one worker: it executes flights off the queue until Drain
// closes it.
func (s *Service) runner() {
	defer s.wg.Done()
	for f := range s.queue {
		s.mu.Lock()
		s.pending--
		if len(f.subs) == 0 {
			// Every subscriber cancelled before the job started.
			f.state = flightDone
			delete(s.flights, f.hash)
			s.sm.jobsSkipped.Add(1)
			s.updateGauges()
			s.mu.Unlock()
			continue
		}
		f.state = flightRunning
		s.running++
		s.updateGauges()
		s.mu.Unlock()

		results, err := s.engine.Run([]sweep.Job{f.job})
		var res sweep.Result
		if err == nil {
			res = results[0]
		}

		s.mu.Lock()
		f.state = flightDone
		delete(s.flights, f.hash)
		s.running--
		if err != nil {
			s.sm.jobsFailed.Add(1)
		} else {
			s.sm.jobsCompleted.Add(1)
		}
		for _, sub := range f.subs {
			sub.sw.deliverLocked(sub.index, res, err)
		}
		f.subs = nil
		s.updateGauges()
		s.mu.Unlock()
	}
}

// deliverLocked folds one finished job into the sweep and emits its event;
// the caller holds the service mutex.
func (sw *Sweep) deliverLocked(index int, r sweep.Result, err error) {
	if sw.closed {
		return
	}
	ev := Event{Type: EventResult, SweepID: sw.id, Index: index, Total: sw.total}
	if err != nil {
		sw.failed++
		ev.Err = err.Error()
	} else {
		sw.done++
		rr := r
		ev.Result = &rr
		if r.Cached {
			sw.cacheHits++
		}
	}
	ev.Done, ev.Failed = sw.done, sw.failed
	sw.events <- ev
	if sw.done+sw.failed == sw.total {
		sw.finishLocked(EventDone)
	}
}

// finishLocked emits the terminal event, closes the stream and retires the
// sweep; the caller holds the service mutex.
func (sw *Sweep) finishLocked(typ EventType) {
	if sw.closed {
		return
	}
	sw.closed = true
	sw.events <- Event{
		Type: typ, SweepID: sw.id, Done: sw.done, Failed: sw.failed, Total: sw.total,
		Summary: &Summary{
			Jobs:      sw.total,
			Completed: sw.done,
			Failed:    sw.failed,
			DedupHits: sw.dedup,
			CacheHits: sw.cacheHits,
			ElapsedNS: time.Since(sw.start).Nanoseconds(),
		},
	}
	close(sw.events)
	delete(sw.svc.sweeps, sw.id)
	if typ == EventDone {
		sw.svc.sm.sweepsCompleted.Add(1)
	} else {
		sw.svc.sm.sweepsCancelled.Add(1)
	}
}

// Cancel withdraws an active sweep: its claims on unstarted jobs are
// dropped (a job nobody else wants is skipped when a runner reaches it), its
// running jobs finish without delivering to it (their results still land in
// the cache), and its stream terminates with EventCancelled.  It reports
// whether the ID named an active sweep.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok || sw.closed {
		return false
	}
	for _, f := range sw.flights {
		if f.state == flightDone {
			continue
		}
		keep := f.subs[:0]
		for _, sub := range f.subs {
			if sub.sw != sw {
				keep = append(keep, sub)
			}
		}
		f.subs = keep
	}
	sw.finishLocked(EventCancelled)
	s.updateGauges()
	return true
}

// Status reports an active sweep's progress.  Completed and cancelled sweeps
// are retired immediately, so they report false.
func (s *Service) Status(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return Status{}, false
	}
	return Status{ID: sw.id, Total: sw.total, Done: sw.done, Failed: sw.failed, DedupHits: sw.dedup}, true
}

// ActiveSweeps returns the IDs of the currently active sweeps, sorted by
// admission order (IDs are sequential).
func (s *Service) ActiveSweeps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Drain stops admission (Submit returns ErrDraining), closes the queue, and
// waits for the backlog — everything already admitted — to finish.  If ctx
// expires first, the remaining active sweeps are cancelled so unstarted jobs
// are skipped, running jobs are awaited (a simulation cannot be interrupted
// mid-run), and ctx's error is returned.  Drain is idempotent; concurrent
// calls all wait.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Forced drain: withdraw the remaining sweeps and wait out the jobs
	// that are actually on a runner.
	for _, id := range s.ActiveSweeps() {
		s.Cancel(id)
	}
	<-done
	return ctx.Err()
}

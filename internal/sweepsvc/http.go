package sweepsvc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cmpsched/internal/sweep"
)

// Handler is the HTTP/JSON binding of a Service:
//
//	POST   /sweeps       submit a Request; streams the sweep's events as
//	                     NDJSON (or SSE when Accept: text/event-stream),
//	                     with the sweep ID in the X-Sweep-ID header
//	GET    /sweeps/{id}  status snapshot of an active sweep
//	DELETE /sweeps/{id}  cancel an active sweep
//	GET    /metrics      JSON metrics snapshot (registry + derived rates)
//	GET    /healthz      liveness; 503 once draining
//
// Admission failures map to transport codes: SaturatedError to 429 with a
// Retry-After header, ErrDraining to 503 with Retry-After, LimitError and
// wire-validation failures to 400.  A client that disconnects mid-stream
// cancels its sweep, releasing its claim on every unstarted job.
type Handler struct {
	// Expand converts a decoded, validated Request into jobs; it defaults
	// to (*Request).Jobs.  It is an exported seam so tests can drive the
	// full HTTP path with jobs of controllable duration.
	Expand func(*Request) ([]sweep.Job, error)
	// Logf, when non-nil, receives one line per submission and rejection.
	Logf func(format string, args ...any)

	svc *Service
	mux *http.ServeMux
}

// NewHandler binds a service.
func NewHandler(svc *Service) *Handler {
	h := &Handler{
		svc:    svc,
		Expand: func(r *Request) ([]sweep.Job, error) { return r.Jobs() },
	}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("POST /sweeps", h.submit)
	h.mux.HandleFunc("GET /sweeps/{id}", h.status)
	h.mux.HandleFunc("DELETE /sweeps/{id}", h.cancel)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// logf logs through the handler's logger when one is set.
func (h *Handler) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// healthz reports liveness; a draining service answers 503 so load
// balancers stop routing to it while its backlog finishes.
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.svc.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// MetricsSnapshot is the /metrics response body: the raw registry samples
// plus the derived service rates dashboards want precomputed.
type MetricsSnapshot struct {
	// Service carries the derived service-level summary.
	Service ServiceSummary `json:"service"`
	// Metrics is the flattened registry snapshot (service svc.* and engine
	// sweep.* names alike).
	Metrics map[string]int64 `json:"metrics"`
}

// ServiceSummary is the derived half of a metrics snapshot.
type ServiceSummary struct {
	// UptimeSec is the service's age in seconds.
	UptimeSec float64 `json:"uptime_sec"`
	// QueueDepth is the number of admitted-but-unstarted jobs.
	QueueDepth int64 `json:"queue_depth"`
	// InflightJobs is the number of jobs on runners right now.
	InflightJobs int64 `json:"inflight_jobs"`
	// ActiveSweeps is the number of admitted, unfinished sweeps.
	ActiveSweeps int64 `json:"active_sweeps"`
	// JobsServed counts jobs delivered to clients: completions plus
	// cross-client dedup subscriptions.
	JobsServed int64 `json:"jobs_served"`
	// DedupHits counts cross-client single-flight subscriptions.
	DedupHits int64 `json:"dedup_hits"`
	// CacheHits and CacheMisses are the result cache's counters.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts result-cache misses.
	CacheMisses int64 `json:"cache_misses"`
	// CacheHitRate is hits/(hits+misses), 0 with no traffic or no cache.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SimCycles is the total simulated cycles this process computed.
	SimCycles int64 `json:"sim_cycles"`
	// CyclesPerSec is SimCycles divided by uptime.
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// metrics renders the snapshot.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	samples := h.svc.Metrics().Snapshot()
	flat := make(map[string]int64, len(samples))
	for _, s := range samples {
		flat[s.Name] = s.Value
	}
	hits, misses := h.svc.CacheStats()
	uptime := h.svc.Uptime().Seconds()
	sum := ServiceSummary{
		UptimeSec:    uptime,
		QueueDepth:   flat["svc.queue_depth"],
		InflightJobs: flat["svc.inflight_jobs"],
		ActiveSweeps: flat["svc.active_sweeps"],
		JobsServed:   flat["svc.jobs_completed"] + flat["svc.jobs_deduped"],
		DedupHits:    flat["svc.jobs_deduped"],
		CacheHits:    hits,
		CacheMisses:  misses,
		SimCycles:    flat["sweep.sim_cycles"],
	}
	if total := hits + misses; total > 0 {
		sum.CacheHitRate = float64(hits) / float64(total)
	}
	if uptime > 0 {
		sum.CyclesPerSec = float64(sum.SimCycles) / uptime
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(MetricsSnapshot{Service: sum, Metrics: flat})
}

// retryAfterSeconds renders a Retry-After value, at least one second.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// submit decodes, validates, admits and streams one sweep.
func (h *Handler) submit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(r.Body)
	if err == nil {
		err = req.Validate()
	}
	var n int
	if err == nil {
		n, err = req.NumJobs()
	}
	if err != nil {
		h.logf("sweepd: reject: %v", err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A few kilobytes of request can name millions of jobs: bound the count
	// before paying for the expansion.
	if err := h.svc.checkJobCount(n); err != nil {
		h.reject(w, err)
		return
	}
	jobs, err := h.Expand(req)
	if err != nil {
		h.logf("sweepd: reject: %v", err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sw, err := h.svc.Submit(jobs)
	if err != nil {
		h.reject(w, err)
		return
	}
	h.logf("sweepd: %s: accepted %d jobs", sw.ID(), len(jobs))

	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Sweep-ID", sw.ID())
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-sw.Events():
			if !ok {
				return
			}
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: ", ev.Type)
			}
			_ = enc.Encode(ev) // Encode terminates the JSON with \n: one event per line.
			if sse {
				fmt.Fprint(w, "\n")
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			// The client went away: release the sweep's claim on its
			// unstarted jobs, then drain the stream so the sweep retires.
			h.svc.Cancel(sw.ID())
			for range sw.Events() {
			}
			h.logf("sweepd: %s: client disconnected, cancelled", sw.ID())
			return
		}
	}
}

// reject maps an admission error to its transport code.
func (h *Handler) reject(w http.ResponseWriter, err error) {
	h.logf("sweepd: reject: %v", err)
	switch e := err.(type) {
	case *SaturatedError:
		w.Header().Set("Retry-After", retryAfterSeconds(e.RetryAfter))
		http.Error(w, e.Error(), http.StatusTooManyRequests)
	case *LimitError:
		http.Error(w, e.Error(), http.StatusBadRequest)
	default:
		if err == ErrDraining {
			w.Header().Set("Retry-After", retryAfterSeconds(h.svc.opts.RetryAfter))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// status answers GET /sweeps/{id}.
func (h *Handler) status(w http.ResponseWriter, r *http.Request) {
	st, ok := h.svc.Status(r.PathValue("id"))
	if !ok {
		http.Error(w, "no active sweep "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// cancel answers DELETE /sweeps/{id}.
func (h *Handler) cancel(w http.ResponseWriter, r *http.Request) {
	if !h.svc.Cancel(r.PathValue("id")) {
		http.Error(w, "no active sweep "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	h.logf("sweepd: %s: cancelled", r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"cmpsched/internal/obs"
	"cmpsched/internal/sweep"
	"cmpsched/internal/sweepsvc"
)

// timedCache wraps the service's DiskCache to time Get and Put.
type timedCache struct {
	*sweep.DiskCache
	getNS, putNS atomic.Int64
}

func (c *timedCache) Get(k sweep.Key) (sweep.Entry, bool) {
	start := time.Now()
	e, ok := c.DiskCache.Get(k)
	c.getNS.Add(int64(time.Since(start)))
	return e, ok
}

func (c *timedCache) Put(e sweep.Entry) error {
	start := time.Now()
	err := c.DiskCache.Put(e)
	c.putNS.Add(int64(time.Since(start)))
	return err
}

// server is an in-process sweepd: a sweepsvc.Service with two runners behind
// its HTTP handler on a loopback httptest server, backed by a fresh
// DiskCache.  The client is limited to one connection.
type server struct {
	svc      *sweepsvc.Service
	ts       *httptest.Server
	cache    *timedCache
	reg      *obs.Registry
	client   *http.Client
	expandNS atomic.Int64 // host time inside the Expand seam
}

// startServer opens a DiskCache in dir and serves the jobs expand returns
// for each submission (the handler's Expand seam).
func startServer(dir string, expand func(*sweepsvc.Request) ([]sweep.Job, error)) (*server, error) {
	dc, err := sweep.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	s := &server{cache: &timedCache{DiskCache: dc}, reg: obs.NewRegistry()}
	s.svc = sweepsvc.NewService(sweepsvc.Options{Workers: workers, Cache: s.cache, Metrics: s.reg})
	h := sweepsvc.NewHandler(s.svc)
	h.Expand = func(r *sweepsvc.Request) ([]sweep.Job, error) {
		start := time.Now()
		jobs, err := expand(r)
		s.expandNS.Add(int64(time.Since(start)))
		return jobs, err
	}
	s.ts = httptest.NewServer(h)
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return s, nil
}

// close stops the client, the HTTP server and the service's runners, and
// waits for all of them.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.svc.Drain(ctx)
}

// passResult is one submission's outcome as the client saw it.
type passResult struct {
	total    time.Duration // submission to the terminal event
	firstRow time.Duration // submission to the first result row
	rows     []*sweep.Result
	errRows  int
	bytes    int64
}

// countingReader counts the bytes of the NDJSON stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// submit posts one request and reads its stream to the terminal event.  A
// non-200 answer (a 429 included) is returned as an error.
func (s *server) submit(body []byte, n int) (passResult, error) {
	pr := passResult{rows: make([]*sweep.Result, n)}
	start := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return pr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return pr, fmt.Errorf("POST /sweeps: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	cr := &countingReader{r: resp.Body}
	dec := json.NewDecoder(cr)
	for {
		var ev sweepsvc.Event
		if err := dec.Decode(&ev); err != nil {
			return pr, fmt.Errorf("read stream: %w", err)
		}
		switch ev.Type {
		case sweepsvc.EventResult:
			if pr.firstRow == 0 {
				pr.firstRow = time.Since(start)
			}
			if ev.Err != "" || ev.Result == nil || ev.Index < 0 || ev.Index >= n {
				pr.errRows++
				continue
			}
			pr.rows[ev.Index] = ev.Result
		case sweepsvc.EventDone, sweepsvc.EventCancelled:
			pr.total = time.Since(start)
			// Drain to EOF so the connection is reused.
			_, _ = io.Copy(io.Discard, cr)
			pr.bytes = cr.n
			if ev.Type == sweepsvc.EventCancelled {
				return pr, fmt.Errorf("sweep cancelled")
			}
			return pr, nil
		}
	}
}

// dedupHits reads the service's single-flight subscription count from
// GET /metrics.
func (s *server) dedupHits() (int64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap sweepsvc.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, fmt.Errorf("GET /metrics: %w", err)
	}
	return snap.Service.DedupHits, nil
}

// requestBody encodes an explicit-points submission.
func requestBody(points []sweepsvc.Point, quick bool) ([]byte, error) {
	return json.Marshal(sweepsvc.Request{Points: points, Quick: quick})
}

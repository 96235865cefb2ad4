package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"cmpsched/internal/obs"
)

// span is one timed interval of the traced run.  Spans are kept in memory
// and written out when the run ends.
type span struct {
	name       string
	tid        int // 1: the serial runner; 2: the service passes
	job        int // job index, -1 for none
	parent     int // index of the parent span, -1 for a root
	start, end time.Duration
	calls      int64 // aggregated spans: the number of calls summed
	aggregated bool
}

// spanLog records spans relative to its origin.  A nil log records nothing.
type spanLog struct {
	origin time.Time
	tid    int
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now(), tid: 1} }

func (l *spanLog) begin(name string, job, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, tid: l.tid, job: job, parent: parent, start: time.Since(l.origin), end: -1})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].end = time.Since(l.origin)
}

// aggregate records a counted child of parent whose duration is the sum of
// many small calls inside it (the scheduler's, interleaved with the
// engine's own work).  It is drawn from the parent's start.
func (l *spanLog) aggregate(name string, job, parent int, total time.Duration, calls int64) {
	if l == nil {
		return
	}
	start := l.spans[parent].start
	l.spans = append(l.spans, span{name: name, tid: l.tid, job: job, parent: parent,
		start: start, end: start + total, calls: calls, aggregated: true})
}

// selfTimes returns each layer's self time among the spans of tid: a span's
// duration minus the part its children cover.
func (l *spanLog) selfTimes(tid int) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range l.spans {
		if s.tid != tid {
			continue
		}
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= 0 {
			self[l.spans[s.parent].name] -= d
		}
	}
	return self
}

// rootTime sums the durations of the root spans of tid.
func (l *spanLog) rootTime(tid int) time.Duration {
	var t time.Duration
	for _, s := range l.spans {
		if s.tid == tid && s.parent < 0 {
			t += s.end - s.start
		}
	}
	return t
}

// writeSelfTable prints the per-layer self times of the serial runner's
// spans and the unattributed remainder; the rows sum to wall.
func (l *spanLog) writeSelfTable(w io.Writer, wall time.Duration) time.Duration {
	self := l.selfTimes(1)
	self["unattributed"] = wall - l.rootTime(1)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tself s\tshare %\t")
	var sum time.Duration
	for _, name := range names {
		sum += self[name]
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t\n", name, self[name].Seconds(), 100*float64(self[name])/float64(wall))
	}
	fmt.Fprintf(tw, "total\t%.3f\t%.1f\t\n", sum.Seconds(), 100*float64(sum)/float64(wall))
	tw.Flush()
	return sum
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (B/E pairs in
// microseconds, nested per thread row) and checks the file with
// obs.ValidateChromeTrace.
func (l *spanLog) writeChrome(path string) error {
	type edge struct {
		ts    int64
		begin bool
		depth int
		idx   int
	}
	depth := make([]int, len(l.spans))
	var edges []edge
	for i, s := range l.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		edges = append(edges, edge{int64(s.start / time.Microsecond), true, depth[i], i},
			edge{int64(s.end / time.Microsecond), false, depth[i], i})
	}
	// Per row: time order; at equal times ends before begins, inner ends
	// before outer ends and outer begins before inner begins, so B/E nest.
	sort.SliceStable(edges, func(a, b int) bool {
		x, y := edges[a], edges[b]
		tx, ty := l.spans[x.idx].tid, l.spans[y.idx].tid
		if tx != ty {
			return tx < ty
		}
		if x.ts != y.ts {
			return x.ts < y.ts
		}
		if x.begin != y.begin {
			return !x.begin
		}
		if x.begin {
			return x.depth < y.depth
		}
		return x.depth > y.depth
	})
	events := []chromeEvent{
		{Name: "thread_name", Phase: "M", PID: 1, TID: 1, Args: map[string]any{"name": "serial traced runner"}},
		{Name: "thread_name", Phase: "M", PID: 1, TID: 2, Args: map[string]any{"name": "sweepd passes (2 workers)"}},
	}
	for _, e := range edges {
		s := l.spans[e.idx]
		ev := chromeEvent{Name: s.name, Cat: "perfbench", Phase: "E", TS: e.ts, PID: 1, TID: s.tid}
		if e.begin {
			ev.Phase = "B"
			ev.Args = map[string]any{"job": s.job, "parent": s.parent, "span": e.idx}
			if s.aggregated {
				ev.Args["calls"] = s.calls
				ev.Args["aggregated"] = true
			}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(data, nil); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}

package refs

import (
	"slices"
	"sync"

	"cmpsched/internal/prng"
)

// Recorded is a pre-materialized reference stream over an immutable arena
// slice: the content-addressed form of a stream, carrying the canonical
// 64-bit fingerprint of its content.  Refs exposes the arena itself, which
// is how the simulator and the profiler read it: any number of goroutines
// may read one arena at once, each keeping its own position.
//
// A Recorded is also a Gen with a cursor of its own (NextBlock, NextSlice,
// Reset), for callers that drain it like any other stream; that cursor
// follows the Gen contract (one goroutine at a time), and Clone gives each
// such caller an independent one.  Recorded values sharing one arena are
// produced by a TraceStore.
type Recorded struct {
	refs   []Ref // immutable; shared by every cursor interned from one stream
	tail   int64
	instrs int64 // sum of refs[i].Instrs plus tail, fixed at construction
	fp     uint64
	pos    int
}

// refBytes is the in-memory footprint of one arena entry, used for the
// store's arena-bytes accounting.
const refBytes = int64(24) // 8 (Addr) + 8 (Instrs) + 1 (Write) + padding

// fingerprintSeed seeds the stream fingerprint so it is not the identity on
// trivial streams; the value is arbitrary but fixed (changing it would move
// every fingerprint, which only matters within one process).
const fingerprintSeed = 0x9E3779B97F4A7C15

// FingerprintRefs returns the canonical 64-bit fingerprint of a materialized
// stream: a splitmix64-mixed hash over every reference (address, write bit,
// instruction count) and the trailing instruction count.  Two streams that
// drain identically always fingerprint identically; the converse holds only
// probabilistically, which is why TraceStore verifies content equality before
// sharing an arena.
func FingerprintRefs(rs []Ref, tail int64) uint64 {
	h := prng.Mix64(fingerprintSeed ^ uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		w := uint64(0)
		if r.Write {
			w = 1
		}
		h = prng.Mix64(h ^ r.Addr)
		h = prng.Mix64(h ^ uint64(r.Instrs)<<1 ^ w)
	}
	return prng.Mix64(h ^ uint64(tail))
}

// Fingerprint drains g (resetting it before and after) and returns its
// canonical stream fingerprint: FingerprintRefs over the drained references
// and the instructions that follow the final one.
func Fingerprint(g Gen) uint64 {
	rs, tail := drainTail(g)
	return FingerprintRefs(rs, tail)
}

// drainTail collects g's references and computes its trailing instruction
// count from the Instrs total, resetting g before and after.
func drainTail(g Gen) ([]Ref, int64) {
	rs := Collect(g)
	var sum int64
	for i := range rs {
		sum += rs[i].Instrs
	}
	return rs, g.Instrs() - sum
}

// Record drains g and returns the equivalent Recorded stream (not interned:
// the arena belongs to the returned value alone).  g is Reset before and
// after.  The result drains identically to g and reports the same Len and
// Instrs totals.
func Record(g Gen) *Recorded {
	rs, tail := drainTail(g)
	return newRecorded(rs, tail, FingerprintRefs(rs, tail))
}

// newRecorded wraps rs, whose fingerprint with tail is fp.
func newRecorded(rs []Ref, tail int64, fp uint64) *Recorded {
	var sum int64
	for i := range rs {
		sum += rs[i].Instrs
	}
	return &Recorded{refs: rs, tail: tail, instrs: sum + tail, fp: fp}
}

// Fingerprint returns the stream's canonical content fingerprint.
func (r *Recorded) Fingerprint() uint64 { return r.fp }

// Refs returns the whole recorded stream, independent of the cursor.  The
// slice is the shared arena: callers must treat it as read-only.
func (r *Recorded) Refs() []Ref { return r.refs }

// Clone returns a fresh cursor over the same arena, positioned at the start.
// Clones replay the identical stream and may be used concurrently with each
// other (the arena is immutable; only each cursor's position is stateful).
func (r *Recorded) Clone() *Recorded {
	return &Recorded{refs: r.refs, tail: r.tail, instrs: r.instrs, fp: r.fp}
}

// Len implements Gen.
func (r *Recorded) Len() int64 { return int64(len(r.refs)) }

// Instrs implements Gen.
func (r *Recorded) Instrs() int64 { return r.instrs }

// Reset implements Gen.
func (r *Recorded) Reset() { r.pos = 0 }

// NextBlock implements Gen: a bounds-checked copy out of the arena.
func (r *Recorded) NextBlock(buf []Ref) int {
	n := copy(buf, r.refs[r.pos:])
	r.pos += n
	return n
}

// NextSlice implements Sliced, handing out the remainder of the arena
// directly.  Callers must treat the slice as read-only.
func (r *Recorded) NextSlice() []Ref {
	out := r.refs[r.pos:]
	r.pos = len(r.refs)
	return out
}

// TraceStoreStats summarises a store's interning activity.
type TraceStoreStats struct {
	// Interned is the total number of Intern/InternRefs requests served.
	Interned int64
	// Unique is the number of distinct streams recorded (each owning one
	// arena).  Interned - Unique is the number of arena rebuilds avoided.
	Unique int64
	// ArenaBytes is the memory held by the unique arenas.
	ArenaBytes int64
}

// TraceStore interns reference streams by content: streams that drain
// identically share one immutable arena, and every Intern call returns an
// independent replay cursor over it.  Lookup is by 64-bit fingerprint with
// full content verification on a match, so fingerprint collisions cost a
// comparison but can never alias two different streams.
//
// A store is safe for concurrent use; the cursors it returns follow the
// usual Gen contract (one goroutine at a time per cursor).
type TraceStore struct {
	mu    sync.Mutex
	byFP  map[uint64][]*Recorded
	stats TraceStoreStats
}

// NewTraceStore returns an empty store.
func NewTraceStore() *TraceStore {
	return &TraceStore{byFP: make(map[uint64][]*Recorded)}
}

// InternRefs interns the stream that emits rs then retires tail trailing
// instructions.  The first occurrence copies rs into a private arena; later
// identical streams share it.  rs is not retained — callers may reuse the
// backing slice.
func (s *TraceStore) InternRefs(rs []Ref, tail int64) *Recorded {
	return s.intern(rs, tail, FingerprintRefs(rs, tail), true)
}

// Intern drains g (resetting it before and after) and interns its stream,
// returning a Recorded cursor that drains identically to g.  A Recorded
// input skips the drain and interns its arena directly.
func (s *TraceStore) Intern(g Gen) *Recorded {
	if r, ok := g.(*Recorded); ok {
		return s.intern(r.refs, r.tail, r.fp, false)
	}
	// The drained slice belongs to this call alone, so a new stream keeps
	// it as its arena without a copy.
	rs, tail := drainTail(g)
	return s.intern(rs, tail, FingerprintRefs(rs, tail), false)
}

// intern returns a cursor over the store's arena for the stream (rs, tail)
// with fingerprint fp, first adding rs as a new arena — a copy of it when
// copyArena — if no identical stream is stored.
func (s *TraceStore) intern(rs []Ref, tail int64, fp uint64, copyArena bool) *Recorded {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Interned++
	for _, t := range s.byFP[fp] {
		if t.tail == tail && sameRefs(t.refs, rs) {
			return t.Clone()
		}
	}
	if copyArena {
		rs = slices.Clone(rs)
	}
	t := newRecorded(rs, tail, fp)
	s.byFP[fp] = append(s.byFP[fp], t)
	s.stats.Unique++
	s.stats.ArenaBytes += int64(len(rs)) * refBytes
	return t.Clone()
}

// Stats returns a snapshot of the store's interning counters.
func (s *TraceStore) Stats() TraceStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// sameRefs reports element-wise equality, with an identity fast path for
// re-interned arenas.
func sameRefs(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	if &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Package refs provides composable, deterministic memory-reference streams.
//
// A task in a computation DAG (package dag) carries a reference generator
// describing the memory it touches and the instructions it retires between
// references.  The CMP simulator (package cmpsim) replays these streams
// through the modelled cache hierarchy, and the working-set profiler
// (package profile) consumes the same streams to compute stack distances.
//
// References are expressed at whatever granularity the producer chooses; the
// workload generators in this repository emit one reference per cache line
// touched, which keeps traces compact while preserving miss behaviour.
package refs

import (
	"slices"

	"cmpsched/internal/prng"
)

// Ref is a single memory reference.
type Ref struct {
	// Addr is the byte address of the reference. Consumers map it to a
	// cache line by masking with their line size.
	Addr uint64
	// Write reports whether the reference is a store.
	Write bool
	// Instrs is the number of instructions retired since the previous
	// reference of the same stream (exclusive of the memory operation
	// itself). The simulator charges these cycles before the access.
	Instrs int64
}

// Gen is a resettable stream of memory references, drained in blocks.
//
// Implementations are not safe for concurrent use; callers that replay a
// stream several times must call Reset between iterations.  Streams that
// must be replayed concurrently are recorded once (TraceStore) and read as
// immutable arenas instead.
type Gen interface {
	// Len returns the total number of references the stream produces.
	Len() int64
	// Instrs returns the total number of instructions the stream retires,
	// including instructions that follow the final reference.
	Instrs() int64
	// Reset rewinds the stream to its beginning.
	Reset()
	// NextBlock fills buf with the stream's next references and returns
	// the number produced.  When len(buf) > 0, a return of 0 means the
	// stream is exhausted; a short (non-zero) return does not.
	NextBlock(buf []Ref) int
}

// Sliced is an optional extension of Gen for a stream that is already
// resident in memory (Recorded).  NextSlice hands out the backing storage
// itself, so a consumer replays the whole stream without a single copy.
//
// NextSlice shares the stream position with NextBlock: it returns
// everything not yet consumed and advances the position to the end, so an
// empty slice means the stream is exhausted.  Callers must treat the
// returned slice as read-only; it remains valid across Reset.
type Sliced interface {
	Gen
	// NextSlice returns the stream's remaining references as a slice of the
	// generator's backing storage and advances the position past them.
	NextSlice() []Ref
}

// BlockSize is the batch size block-oriented readers use by default.  64
// references amortise dispatch to noise while keeping a buffer comfortably
// inside the host L1.
const BlockSize = 64

// ReadBlock fills buf from g.  It is g.NextBlock(buf), kept as a function
// for the perfbench harness's replay.
func ReadBlock(g Gen, buf []Ref) int { return g.NextBlock(buf) }

var _ Sliced = (*Recorded)(nil)

// intn returns a uniform value in [0, n) drawn from r. n must be > 0.
func intn(r *prng.SplitMix64, n uint64) uint64 {
	// Multiply-shift reduction; bias is negligible for our trace sizes.
	hi, _ := mul64(r.Next(), n)
	return hi
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// Empty is a generator producing no references and no instructions.
type Empty struct{}

// Len implements Gen.
func (Empty) Len() int64 { return 0 }

// Instrs implements Gen.
func (Empty) Instrs() int64 { return 0 }

// Reset implements Gen.
func (Empty) Reset() {}

// NextBlock implements Gen.
func (Empty) NextBlock([]Ref) int { return 0 }

// Compute is a generator that retires instructions without touching memory.
type Compute struct {
	// N is the number of instructions retired.
	N int64
}

// Len implements Gen.
func (Compute) Len() int64 { return 0 }

// Instrs implements Gen.
func (c Compute) Instrs() int64 { return c.N }

// Reset implements Gen.
func (Compute) Reset() {}

// NextBlock implements Gen.
func (Compute) NextBlock([]Ref) int { return 0 }

// Points replays an explicit list of references.  It backs the graph
// kernels' per-task traces as well as tests and hand-built micro traces, so
// its streams can run to hundreds of thousands of references.
type Points struct {
	// Refs is the reference list.  It must not be mutated after the first
	// Instrs call: the instruction total is computed once and cached.
	Refs []Ref
	// Tail is the number of instructions retired after the final
	// reference.
	Tail int64
	pos  int

	// sum caches the total of Refs[i].Instrs; sumValid guards the first
	// computation so Instrs is O(1) on every later call (it is called per
	// task by dag.AddTask, dag.Validate and the coarsening pass).
	sum      int64
	sumValid bool
}

// NewPoints returns a Points generator over refs.
func NewPoints(refs []Ref, tail int64) *Points {
	p := &Points{Refs: refs, Tail: tail}
	p.refSum()
	return p
}

// Len implements Gen.
func (p *Points) Len() int64 { return int64(len(p.Refs)) }

func (p *Points) refSum() int64 {
	if !p.sumValid {
		var total int64
		for _, r := range p.Refs {
			total += r.Instrs
		}
		p.sum = total
		p.sumValid = true
	}
	return p.sum
}

// Instrs implements Gen.
func (p *Points) Instrs() int64 { return p.Tail + p.refSum() }

// Reset implements Gen.
func (p *Points) Reset() { p.pos = 0 }

// NextBlock implements Gen.
func (p *Points) NextBlock(buf []Ref) int {
	n := copy(buf, p.Refs[p.pos:])
	p.pos += n
	return n
}

// Scan walks a contiguous region sequentially, touching one address per
// LineBytes, optionally several times.
type Scan struct {
	// Base is the starting byte address of the region.
	Base uint64
	// Bytes is the size of the region in bytes.
	Bytes int64
	// LineBytes is the distance between successive references; it is
	// normally the cache-line size. Must be > 0.
	LineBytes int64
	// Write marks the references as stores.
	Write bool
	// InstrsPerRef is the number of instructions retired before each
	// reference.
	InstrsPerRef int64
	// Passes is the number of complete passes over the region. Zero is
	// treated as one pass.
	Passes int

	pos int64 // references emitted so far
}

// NewScan returns a single sequential read pass over [base, base+bytes).
func NewScan(base uint64, bytes, lineBytes, instrsPerRef int64) *Scan {
	return &Scan{Base: base, Bytes: bytes, LineBytes: lineBytes, InstrsPerRef: instrsPerRef, Passes: 1}
}

func (s *Scan) passes() int64 {
	if s.Passes <= 0 {
		return 1
	}
	return int64(s.Passes)
}

func (s *Scan) linesPerPass() int64 {
	if s.LineBytes <= 0 || s.Bytes <= 0 {
		return 0
	}
	return (s.Bytes + s.LineBytes - 1) / s.LineBytes
}

// Len implements Gen.
func (s *Scan) Len() int64 { return s.linesPerPass() * s.passes() }

// Instrs implements Gen.
func (s *Scan) Instrs() int64 { return s.Len() * s.InstrsPerRef }

// Reset implements Gen.
func (s *Scan) Reset() { s.pos = 0 }

// NextBlock implements Gen.
func (s *Scan) NextBlock(buf []Ref) int {
	total := s.Len()
	lines := s.linesPerPass()
	n := 0
	for n < len(buf) && s.pos < total {
		idx := s.pos % lines
		buf[n] = Ref{
			Addr:   s.Base + uint64(idx*s.LineBytes),
			Write:  s.Write,
			Instrs: s.InstrsPerRef,
		}
		s.pos++
		n++
	}
	return n
}

// Strided emits Count references starting at Base with a fixed stride.
type Strided struct {
	Base         uint64
	StrideBytes  int64
	Count        int64
	Write        bool
	InstrsPerRef int64

	pos int64
}

// Len implements Gen.
func (s *Strided) Len() int64 { return s.Count }

// Instrs implements Gen.
func (s *Strided) Instrs() int64 { return s.Count * s.InstrsPerRef }

// Reset implements Gen.
func (s *Strided) Reset() { s.pos = 0 }

// NextBlock implements Gen.
func (s *Strided) NextBlock(buf []Ref) int {
	n := 0
	for n < len(buf) && s.pos < s.Count {
		buf[n] = Ref{
			Addr:   s.Base + uint64(s.pos*s.StrideBytes),
			Write:  s.Write,
			Instrs: s.InstrsPerRef,
		}
		s.pos++
		n++
	}
	return n
}

// Random emits Count references uniformly distributed over a region, aligned
// to LineBytes. The sequence is a deterministic function of Seed.
type Random struct {
	Base         uint64
	Bytes        int64
	LineBytes    int64
	Count        int64
	Seed         uint64
	Write        bool
	InstrsPerRef int64

	pos int64
	r   *prng.SplitMix64
}

// Len implements Gen.
func (g *Random) Len() int64 { return g.Count }

// Instrs implements Gen.
func (g *Random) Instrs() int64 { return g.Count * g.InstrsPerRef }

// Reset implements Gen.
func (g *Random) Reset() {
	g.pos = 0
	g.r = nil
}

func (g *Random) lines() uint64 {
	lb := g.LineBytes
	if lb <= 0 {
		lb = 64
	}
	n := g.Bytes / lb
	if n <= 0 {
		n = 1
	}
	return uint64(n)
}

// NextBlock implements Gen.
func (g *Random) NextBlock(buf []Ref) int {
	if g.pos >= g.Count {
		return 0
	}
	if g.r == nil {
		g.r = &prng.SplitMix64{State: g.Seed}
	}
	lb := g.LineBytes
	if lb <= 0 {
		lb = 64
	}
	lines := g.lines()
	n := 0
	for n < len(buf) && g.pos < g.Count {
		line := intn(g.r, lines)
		buf[n] = Ref{
			Addr:   g.Base + line*uint64(lb),
			Write:  g.Write,
			Instrs: g.InstrsPerRef,
		}
		g.pos++
		n++
	}
	return n
}

// Concat runs a sequence of generators back to back.
type Concat struct {
	gens []Gen
	idx  int

	// lenSum/instrSum cache the per-child totals, which workload builders
	// and dag.Validate otherwise recompute per call over what can be a long
	// child list.  Append invalidates the cache.
	lenSum, instrSum int64
	sumsValid        bool
}

// NewConcat returns a generator replaying gens in order. Nil entries are
// skipped.
func NewConcat(gens ...Gen) *Concat {
	out := make([]Gen, 0, len(gens))
	for _, g := range gens {
		if g != nil {
			out = append(out, g)
		}
	}
	return &Concat{gens: out}
}

// Append adds more generators to the end of the sequence.
func (c *Concat) Append(gens ...Gen) {
	for _, g := range gens {
		if g != nil {
			c.gens = append(c.gens, g)
		}
	}
	c.sumsValid = false
}

func (c *Concat) totals() (lenSum, instrSum int64) {
	if !c.sumsValid {
		c.lenSum, c.instrSum = 0, 0
		for _, g := range c.gens {
			c.lenSum += g.Len()
			c.instrSum += g.Instrs()
		}
		c.sumsValid = true
	}
	return c.lenSum, c.instrSum
}

// Len implements Gen.
func (c *Concat) Len() int64 {
	lenSum, _ := c.totals()
	return lenSum
}

// Instrs implements Gen.
func (c *Concat) Instrs() int64 {
	_, instrSum := c.totals()
	return instrSum
}

// Reset implements Gen.
func (c *Concat) Reset() {
	c.idx = 0
	for _, g := range c.gens {
		g.Reset()
	}
}

// NextBlock implements Gen: each child fills as much of the buffer as it
// can, and exhausted children advance the cursor, so one call typically
// returns a full block even across child boundaries.
func (c *Concat) NextBlock(buf []Ref) int {
	n := 0
	for n < len(buf) && c.idx < len(c.gens) {
		k := c.gens[c.idx].NextBlock(buf[n:])
		if k == 0 {
			c.idx++
			continue
		}
		n += k
	}
	return n
}

// Interleave alternates references from two generators (a, b, a, b, ...)
// until both are exhausted.  It models loops that touch two structures per
// iteration, such as a probe that reads an input record and then a hash
// bucket.
type Interleave struct {
	A, B Gen
	turn int
}

// NewInterleave returns an interleaving of a and b.
func NewInterleave(a, b Gen) *Interleave { return &Interleave{A: a, B: b} }

// Len implements Gen.
func (i *Interleave) Len() int64 { return i.A.Len() + i.B.Len() }

// Instrs implements Gen.
func (i *Interleave) Instrs() int64 { return i.A.Instrs() + i.B.Instrs() }

// Reset implements Gen.
func (i *Interleave) Reset() {
	i.turn = 0
	i.A.Reset()
	i.B.Reset()
}

// NextBlock implements Gen.  Each reference comes from the side whose turn
// it is, or from the other side once that one is exhausted; the turn flips
// on every reference either way.
func (i *Interleave) NextBlock(buf []Ref) int {
	gens := [2]Gen{i.A, i.B}
	n := 0
	for n < len(buf) {
		first := i.turn
		i.turn = 1 - first
		if gens[first].NextBlock(buf[n:n+1]) == 0 && gens[1-first].NextBlock(buf[n:n+1]) == 0 {
			break
		}
		n++
	}
	return n
}

// Repeat replays an inner generator a fixed number of times, resetting it
// between rounds.
type Repeat struct {
	G     Gen
	Times int
	round int
}

// NewRepeat returns a generator that replays g `times` times.
func NewRepeat(g Gen, times int) *Repeat { return &Repeat{G: g, Times: times} }

// Len implements Gen.
func (r *Repeat) Len() int64 { return r.G.Len() * int64(max64(0, int64(r.Times))) }

// Instrs implements Gen.
func (r *Repeat) Instrs() int64 { return r.G.Instrs() * int64(max64(0, int64(r.Times))) }

// Reset implements Gen.
func (r *Repeat) Reset() {
	r.round = 0
	r.G.Reset()
}

// NextBlock implements Gen.
func (r *Repeat) NextBlock(buf []Ref) int {
	n := 0
	for n < len(buf) && r.round < r.Times {
		k := r.G.NextBlock(buf[n:])
		if k == 0 {
			r.round++
			if r.round < r.Times {
				r.G.Reset()
			}
			continue
		}
		n += k
	}
	return n
}

// WithTail wraps a generator and adds trailing instructions after the last
// reference, e.g. loop epilogues or result combination code.
type WithTail struct {
	G    Gen
	Tail int64
}

// NewWithTail wraps g with tail trailing instructions.
func NewWithTail(g Gen, tail int64) *WithTail { return &WithTail{G: g, Tail: tail} }

// Len implements Gen.
func (w *WithTail) Len() int64 { return w.G.Len() }

// Instrs implements Gen.
func (w *WithTail) Instrs() int64 { return w.G.Instrs() + w.Tail }

// Reset implements Gen.
func (w *WithTail) Reset() { w.G.Reset() }

// NextBlock implements Gen.
func (w *WithTail) NextBlock(buf []Ref) int { return w.G.NextBlock(buf) }

// Collect drains g and returns all of its references.  The generator is
// Reset before and after collection.  It drains straight into the result's
// spare capacity; the one slot beyond Len lets a stream that is longer than
// it claims be collected in full rather than truncated.
func Collect(g Gen) []Ref {
	g.Reset()
	out := make([]Ref, 0, g.Len()+1)
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, BlockSize)
		}
		k := g.NextBlock(out[len(out):cap(out)])
		if k == 0 {
			break
		}
		out = out[:len(out)+k]
	}
	g.Reset()
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

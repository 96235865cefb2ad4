// Package cache models set-associative caches with LRU replacement and the
// two-level (private L1, shared L2) hierarchy used by the CMP simulator.
//
// The model is functional rather than cycle-accurate: each access classifies
// as a hit or a miss at each level and reports the victim line (for
// write-back traffic accounting).  Latencies are attached by the caller
// (package cmpsim) from the configuration tables in package config.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int64
	// LineBytes is the cache-line size.
	LineBytes int64
	// Assoc is the set associativity (ways).
	Assoc int
	// HitLatency is the access latency in cycles charged on a hit.
	HitLatency int64
}

// Sets returns the number of sets implied by the configuration (at least 1).
func (c Config) Sets() int {
	if c.LineBytes <= 0 || c.Assoc <= 0 {
		return 1
	}
	sets := c.SizeBytes / (c.LineBytes * int64(c.Assoc))
	if sets < 1 {
		sets = 1
	}
	return int(sets)
}

// Lines returns the total number of lines the cache holds.
func (c Config) Lines() int64 { return int64(c.Sets()) * int64(c.Assoc) }

// EffectiveBytes returns the capacity actually modelled (Sets*Assoc*Line),
// which may be slightly below SizeBytes when SizeBytes is not an exact
// multiple of LineBytes*Assoc.
func (c Config) EffectiveBytes() int64 { return c.Lines() * c.LineBytes }

// Validate reports obviously inconsistent configurations.
func (c Config) Validate() error {
	if c.LineBytes <= 0 {
		return fmt.Errorf("cache: LineBytes must be positive, got %d", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: Assoc must be positive, got %d", c.Assoc)
	}
	if c.Assoc > maxAssoc {
		return fmt.Errorf("cache: Assoc must be at most %d, got %d", maxAssoc, c.Assoc)
	}
	if c.SizeBytes < c.LineBytes*int64(c.Assoc) {
		return fmt.Errorf("cache: SizeBytes %d smaller than one set (%d)", c.SizeBytes, c.LineBytes*int64(c.Assoc))
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache: negative HitLatency %d", c.HitLatency)
	}
	return nil
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Reads      int64
	Writes     int64
	Evictions  int64
	Writebacks int64
}

// MissRate returns Misses/Accesses, or 0 when there were no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
}

// Per-way state bits held in a set's state row.
const (
	lineValid uint16 = 1 << iota
	lineDirty
)

// maxAssoc is the largest associativity a Cache supports: a set's recency
// order stores way indices as uint16.
const maxAssoc = 1 << 16

// Cache is a set-associative cache with true-LRU replacement and a
// write-back, write-allocate policy.
//
// Replacement state is a per-set recency order, not per-way timestamps.
// For each set, meta holds a row of 2*assoc uint16s: the set's way indices
// from MRU to LRU, then each way's valid/dirty bits, so a 20-way set's
// whole replacement state is 80 bytes.  Invalid ways always sit at the tail
// of the order.  An access walks the order from MRU to LRU, comparing each
// way's tag and shifting it back one position as it goes: a hit then only
// puts its way in front, and a miss has rotated the LRU way (invalid
// whenever any way is) out of the tail into the front as the victim,
// evicting only if it was valid.  Invalidate moves the freed way to the
// tail; Flush clears every row.  A row of zeros (no permutation of two or
// more ways) marks a set never filled: New writes no per-set metadata, and
// a set's order is set up on its first cold fill, so construction faults in
// no pages a run never touches.
//
// Tags live in a flat set-major array (set i occupies [i*assoc,
// (i+1)*assoc)), and a flat index set*assoc+way — a slot — identifies a
// resident line until it is evicted (see LastSlot), which the hierarchy's
// holder masks and write-back back-pointers rely on.  Line/set arithmetic
// uses shifts and masks whenever the line size and set count are powers of
// two — every access otherwise pays two hardware integer divisions.
//
// Neither layout nor arithmetic affects classification: every result and
// statistic is identical to a timestamp LRU that fills the lowest-indexed
// invalid way (the tests keep one as an oracle).  Only which invalid way a
// fill picks can differ, and that is visible only through LastSlot.
type Cache struct {
	cfg Config
	// tags[i] is the line base address held by flat way i (valid only when
	// its state has lineValid set; invalid ways may hold stale tags).
	tags []uint64
	// meta[2*s*assoc:][:assoc] is set s's recency order and the next assoc
	// entries its per-way state bits.
	meta    []uint16
	assoc   int
	numSets int
	setMask uint64
	clock   uint64
	// Per-access counters.  The access count itself is derived from the
	// clock (which advances exactly once per Access or writeHit) minus the clock value
	// at the last stats reset, and Hits/Reads are derived in Stats()
	// (Hits = Accesses-Misses, Reads = Accesses-Writes) — so a hit bumps
	// nothing beyond the clock.
	clockBase  uint64
	misses     int64
	writes     int64
	evictions  int64
	writebacks int64
	// power2 records whether the set count is a power of two, enabling
	// mask-based indexing.
	power2 bool
	// linePow2/lineShift/lineMask enable shift/mask line arithmetic when
	// LineBytes is a power of two.
	linePow2  bool
	lineShift uint
	lineMask  uint64
	// lastSet and lastWay locate the way touched by the most recent
	// Access: the hit way, or the filled way on a miss.  LastSlot and
	// lastRef expose them so the hierarchy can key per-line bookkeeping off
	// the slot a line occupies without an extra lookup.
	lastSet int
	lastWay int
}

// AccessResult describes the outcome of a single cache access.
type AccessResult struct {
	// Hit reports whether the line was present.
	Hit bool
	// Evicted reports whether a valid line was displaced to make room.
	Evicted bool
	// EvictedAddr is the base address of the displaced line when Evicted.
	EvictedAddr uint64
	// EvictedDirty reports whether the displaced line was dirty (requires
	// a write-back).
	EvictedDirty bool
}

// New returns an empty cache with the given configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	lines := n * cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint64, lines),
		meta:    make([]uint16, 2*lines),
		assoc:   cfg.Assoc,
		numSets: n,
		power2:  n&(n-1) == 0,
	}
	if c.power2 {
		c.setMask = uint64(n - 1)
	}
	if lb := uint64(cfg.LineBytes); lb&(lb-1) == 0 {
		c.linePow2 = true
		c.lineMask = ^(lb - 1)
		for 1<<c.lineShift < lb {
			c.lineShift++
		}
	}
	return c, nil
}

// MustNew is New but panics on error; for use with known-good configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats {
	accesses := int64(c.clock - c.clockBase)
	return Stats{
		Accesses:   accesses,
		Hits:       accesses - c.misses,
		Misses:     c.misses,
		Reads:      accesses - c.writes,
		Writes:     c.writes,
		Evictions:  c.evictions,
		Writebacks: c.writebacks,
	}
}

// ResetStats clears the statistics without touching cache contents.
func (c *Cache) ResetStats() {
	c.clockBase = c.clock
	c.misses, c.writes, c.evictions, c.writebacks = 0, 0, 0, 0
}

// lineAddr returns the base address of the line containing addr.
func (c *Cache) lineAddr(addr uint64) uint64 {
	if c.linePow2 {
		return addr & c.lineMask
	}
	return addr - addr%uint64(c.cfg.LineBytes)
}

func (c *Cache) setIndex(lineAddr uint64) int {
	var idx uint64
	if c.linePow2 {
		idx = lineAddr >> c.lineShift
	} else {
		idx = lineAddr / uint64(c.cfg.LineBytes)
	}
	if c.power2 {
		return int(idx & c.setMask)
	}
	return int(idx % uint64(c.numSets))
}

// set returns the tag row, recency order and state row of set s.
func (c *Cache) set(s int) (tags []uint64, order, state []uint16) {
	a := c.assoc
	base := s * a
	m := c.meta[2*base : 2*base+2*a : 2*base+2*a]
	return c.tags[base : base+a : base+a], m[:a:a], m[a:]
}

// toFront moves way to the MRU position of order, shifting the ways ahead
// of it back by one in the same pass that finds it.
func toFront(order []uint16, way uint16) {
	prev := order[0]
	if prev == way {
		return
	}
	for p := 1; p < len(order); p++ {
		cur := order[p]
		order[p] = prev
		if cur == way {
			break
		}
		prev = cur
	}
	order[0] = way
}

// Access performs a read or write of addr, allocating on miss, and returns
// the outcome.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	la := c.lineAddr(addr)
	set := c.setIndex(la)
	c.clock++
	if write {
		c.writes++
	}
	tags, order, st := c.set(set)
	c.lastSet = set
	// One pass from MRU to LRU both looks for the line and shifts every way
	// it passes back by one position: a hit at position p then only has to
	// put its way in front, and a miss has rotated the whole order, leaving
	// the LRU way (carried out of the tail) to be put in front as the victim.
	prev := order[0]
	for p, w := range order {
		order[p] = prev
		if tags[w] == la && st[w]&lineValid != 0 {
			order[0] = w
			if write {
				st[w] |= lineDirty
			}
			c.lastWay = int(w)
			return AccessResult{Hit: true}
		}
		prev = w
	}
	c.misses++
	victim := prev
	if n := len(order) - 1; n > 0 && order[n] == victim {
		// A rotated order never repeats its old tail, so this is an
		// all-zero row: the set's first fill.  Order the other ways so
		// later cold fills take way 1, 2, ... in turn.
		for p := 1; p <= n; p++ {
			order[p] = uint16(n + 1 - p)
		}
	}
	order[0] = victim
	res := AccessResult{}
	if s := st[victim]; s&lineValid != 0 {
		res.Evicted = true
		res.EvictedAddr = tags[victim]
		res.EvictedDirty = s&lineDirty != 0
		c.evictions++
		if res.EvictedDirty {
			c.writebacks++
		}
	}
	tags[victim] = la
	if write {
		st[victim] = lineValid | lineDirty
	} else {
		st[victim] = lineValid
	}
	c.lastWay = int(victim)
	return res
}

// LastSlot returns the flat slot index (set*assoc + way) of the line touched
// by the most recent Access: the way that hit, or the way filled on a miss.
// Slot indices are stable identifiers for resident lines — a line stays in
// its slot until evicted — so callers can maintain per-resident-line state in
// a dense array of Config.Lines() entries.
func (c *Cache) LastSlot() int { return c.lastSet*c.assoc + c.lastWay }

// lastRef returns the slot of the most recent Access packed as
// set<<16 | way, the form writeHit takes: it spares the hierarchy a
// division by the associativity to recover the way from a flat slot index.
func (c *Cache) lastRef() uint64 { return uint64(c.lastSet)<<16 | uint64(c.lastWay) }

// writeHit performs a write of the line la that is known to sit at ref (as
// returned by lastRef when the line was filled or last touched): a write hit
// without the tag scan.  It reports false, changing nothing, when the slot
// does not hold la; the caller then falls back to Access.
func (c *Cache) writeHit(ref, la uint64) bool {
	set, way := ref>>16, int(ref&0xffff)
	if set >= uint64(c.numSets) || way >= c.assoc {
		return false
	}
	tags, order, st := c.set(int(set))
	if tags[way] != la || st[way]&lineValid == 0 {
		return false
	}
	c.clock++
	c.writes++
	st[way] |= lineDirty
	toFront(order, uint16(way))
	c.lastSet, c.lastWay = int(set), way
	return true
}

// Contains reports whether the line holding addr is present, without
// affecting LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	tags, _, st := c.set(c.setIndex(la))
	for i := range tags {
		if tags[i] == la && st[i]&lineValid != 0 {
			return true
		}
	}
	return false
}

// Invalidate removes the line holding addr if present, returning whether it
// was present and dirty.  The freed way moves to the tail of its set's
// order, so the next miss in the set fills it.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := c.lineAddr(addr)
	tags, order, st := c.set(c.setIndex(la))
	for p, w := range order {
		if s := st[w]; s&lineValid == 0 {
			// Invalid ways form the tail: the line is absent.
			return false, false
		} else if tags[w] == la {
			copy(order[p:], order[p+1:])
			order[len(order)-1] = w
			st[w] = 0
			return true, s&lineDirty != 0
		}
	}
	return false, false
}

// Flush invalidates every line, returning the number of dirty lines that
// would have been written back.  Every set returns to its untouched state.
func (c *Cache) Flush() (dirty int64) {
	for set := range c.numSets {
		_, _, st := c.set(set)
		for _, s := range st {
			if s == lineValid|lineDirty {
				dirty++
			}
		}
	}
	clear(c.tags)
	clear(c.meta)
	return dirty
}

// OccupiedLines returns the number of valid lines currently resident.
func (c *Cache) OccupiedLines() int64 {
	var n int64
	for set := range c.numSets {
		_, _, st := c.set(set)
		for _, s := range st {
			if s&lineValid != 0 {
				n++
			}
		}
	}
	return n
}

package cache

import (
	"math/rand"
	"testing"
)

// refCache is the timestamp-LRU cache the recency-ordered Cache replaced,
// kept as the oracle for the differential tests: every way carries the
// cache clock at its last touch, a miss fills the lowest-indexed invalid
// way or else evicts the way with the smallest stamp.  It favours
// obviousness over speed (plain division, one array per field).
type refCache struct {
	cfg   Config
	sets  int
	tags  []uint64
	use   []uint64
	valid []bool
	dirty []bool
	clock uint64
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.Sets() * cfg.Assoc
	return &refCache{
		cfg:   cfg,
		sets:  cfg.Sets(),
		tags:  make([]uint64, lines),
		use:   make([]uint64, lines),
		valid: make([]bool, lines),
		dirty: make([]bool, lines),
	}
}

func (c *refCache) locate(addr uint64) (line uint64, base int) {
	lb := uint64(c.cfg.LineBytes)
	line = addr - addr%lb
	return line, int(line/lb%uint64(c.sets)) * c.cfg.Assoc
}

func (c *refCache) find(line uint64, base int) int {
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.valid[i] && c.tags[i] == line {
			return i
		}
	}
	return -1
}

func (c *refCache) Access(addr uint64, write bool) AccessResult {
	line, base := c.locate(addr)
	c.clock++
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if i := c.find(line, base); i >= 0 {
		c.stats.Hits++
		c.use[i] = c.clock
		c.dirty[i] = c.dirty[i] || write
		return AccessResult{Hit: true}
	}
	c.stats.Misses++
	victim := -1
	for i := base; i < base+c.cfg.Assoc; i++ {
		if !c.valid[i] {
			victim = i
			break
		}
	}
	var res AccessResult
	if victim < 0 {
		victim = base
		for i := base + 1; i < base+c.cfg.Assoc; i++ {
			if c.use[i] < c.use[victim] {
				victim = i
			}
		}
		res = AccessResult{Evicted: true, EvictedAddr: c.tags[victim], EvictedDirty: c.dirty[victim]}
		c.stats.Evictions++
		if res.EvictedDirty {
			c.stats.Writebacks++
		}
	}
	c.tags[victim], c.use[victim] = line, c.clock
	c.valid[victim], c.dirty[victim] = true, write
	return res
}

func (c *refCache) Contains(addr uint64) bool {
	return c.find(c.locate(addr)) >= 0
}

func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
	i := c.find(c.locate(addr))
	if i < 0 {
		return false, false
	}
	dirty = c.dirty[i]
	c.valid[i], c.dirty[i], c.use[i] = false, false, 0
	return true, dirty
}

func (c *refCache) Flush() (dirty int64) {
	for i := range c.valid {
		if c.valid[i] && c.dirty[i] {
			dirty++
		}
		c.valid[i], c.dirty[i], c.use[i] = false, false, 0
	}
	return dirty
}

func (c *refCache) OccupiedLines() int64 {
	var n int64
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

func (c *refCache) Stats() Stats { return c.stats }

func (c *refCache) ResetStats() { c.stats = Stats{} }

// referenceGeometries spans the shapes the differential tests drive: every
// associativity the simulator's tables use or could (1 through 28 ways),
// non-power-of-two set counts and line sizes (which take the division
// paths), and one fully associative cache as the working-set profiler
// builds them.
func referenceGeometries() []Config {
	return []Config{
		{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 1},
		{SizeBytes: 3 * 2 * 48, LineBytes: 48, Assoc: 2},
		{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 4},
		{SizeBytes: 5 * 4 * 100, LineBytes: 100, Assoc: 4},
		{SizeBytes: 7 * 3, LineBytes: 1, Assoc: 3},
		{SizeBytes: 4 * 16 * 64, LineBytes: 64, Assoc: 16},
		{SizeBytes: 6 * 20 * 128, LineBytes: 128, Assoc: 20},
		{SizeBytes: 100 * 128, LineBytes: 128, Assoc: 28},
		{SizeBytes: 64 * 128, LineBytes: 128, Assoc: 64},
	}
}

// driveReference interprets ops, four bytes per operation, against a Cache
// and the timestamp-LRU oracle built from cfg, and fails on the first
// operation after which their observable behaviour differs: the access
// result, the statistics, residency of the touched line and occupancy.
// The first byte picks the operation (mostly accesses, then invalidations,
// rarer statistics resets and rarest flushes), the next two a line within three
// times the capacity, and the last a byte offset within the line.
func driveReference(t testing.TB, cfg Config, ops []byte) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg)
	footprint := uint64(3*cfg.Lines() + 1)
	lb := uint64(cfg.LineBytes)
	for step := 0; len(ops) >= 4; step++ {
		op := ops[0]
		addr := (uint64(ops[1])|uint64(ops[2])<<8)%footprint*lb + uint64(ops[3])%lb
		ops = ops[4:]
		switch {
		case op < 224:
			write := op&1 != 0
			if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
				t.Fatalf("%+v step %d: Access(%#x, %v) = %+v, reference %+v", cfg, step, addr, write, got, want)
			}
		case op < 248:
			gp, gd := c.Invalidate(addr)
			wp, wd := ref.Invalidate(addr)
			if gp != wp || gd != wd {
				t.Fatalf("%+v step %d: Invalidate(%#x) = %v,%v, reference %v,%v", cfg, step, addr, gp, gd, wp, wd)
			}
		case op < 255:
			c.ResetStats()
			ref.ResetStats()
		default:
			if got, want := c.Flush(), ref.Flush(); got != want {
				t.Fatalf("%+v step %d: Flush = %d dirty, reference %d", cfg, step, got, want)
			}
		}
		if got, want := c.Stats(), ref.Stats(); got != want {
			t.Fatalf("%+v step %d: stats %+v, reference %+v", cfg, step, got, want)
		}
		if got, want := c.Contains(addr), ref.Contains(addr); got != want {
			t.Fatalf("%+v step %d: Contains(%#x) = %v, reference %v", cfg, step, addr, got, want)
		}
		if got, want := c.OccupiedLines(), ref.OccupiedLines(); got != want {
			t.Fatalf("%+v step %d: OccupiedLines = %d, reference %d", cfg, step, got, want)
		}
	}
}

// TestCacheMatchesReference drives random operation streams through every
// reference geometry.  Hot lines keep hits (and so recency reordering)
// common alongside the capacity misses of the wider footprint.
func TestCacheMatchesReference(t *testing.T) {
	for gi, cfg := range referenceGeometries() {
		rng := rand.New(rand.NewSource(int64(gi)))
		ops := make([]byte, 4*20000)
		rng.Read(ops)
		for i := 0; i < len(ops); i += 4 {
			if rng.Intn(3) == 0 {
				ops[i+1], ops[i+2] = byte(rng.Intn(int(cfg.Lines())+1)), 0
			}
		}
		driveReference(t, cfg, ops)
	}
}

// FuzzCacheMatchesReference is the differential test's fuzz target: geom
// picks a reference geometry and ops is the operation stream.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 0, 1, 1, 0, 0, 224, 1, 0, 0})
	f.Fuzz(func(t *testing.T, geom uint8, ops []byte) {
		geoms := referenceGeometries()
		driveReference(t, geoms[int(geom)%len(geoms)], ops)
	})
}

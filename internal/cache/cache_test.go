package cache

import (
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T, sizeBytes int64, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: sizeBytes, LineBytes: 64, Assoc: assoc, HitLatency: 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigSetsAndLines(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 1024, LineBytes: 128, Assoc: 4}
	if cfg.Sets() != 128 {
		t.Fatalf("Sets = %d, want 128", cfg.Sets())
	}
	if cfg.Lines() != 512 {
		t.Fatalf("Lines = %d, want 512", cfg.Lines())
	}
	if cfg.EffectiveBytes() != 64*1024 {
		t.Fatalf("EffectiveBytes = %d", cfg.EffectiveBytes())
	}
}

func TestConfigNonPowerOfTwo(t *testing.T) {
	// 10MB, 20-way, 128B lines => 4096 sets.
	cfg := Config{SizeBytes: 10 << 20, LineBytes: 128, Assoc: 20}
	if cfg.Sets() != 4096 {
		t.Fatalf("Sets = %d, want 4096", cfg.Sets())
	}
	// An awkward size still yields at least one set and a usable cache.
	cfg = Config{SizeBytes: 100 * 128, LineBytes: 128, Assoc: 28}
	if cfg.Sets() != 3 {
		t.Fatalf("Sets = %d, want 3", cfg.Sets())
	}
	if _, err := New(cfg); err != nil {
		t.Fatalf("New: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{SizeBytes: 1024, LineBytes: 0, Assoc: 4},
		{SizeBytes: 1024, LineBytes: 64, Assoc: 0},
		{SizeBytes: 64, LineBytes: 64, Assoc: 4},
		{SizeBytes: 1024, LineBytes: 64, Assoc: 4, HitLatency: -1},
		{SizeBytes: 1<<16 + 1, LineBytes: 1, Assoc: 1<<16 + 1},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, cfg)
		}
	}
	good := Config{SizeBytes: 1024, LineBytes: 64, Assoc: 4, HitLatency: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected good config: %v", err)
	}
}

// TestWidestAssociativity fills and re-touches every way of a cache at the
// widest supported associativity, whose way indices use the full uint16
// range of the recency order.
func TestWidestAssociativity(t *testing.T) {
	const ways = 1 << 16
	c := MustNew(Config{SizeBytes: ways, LineBytes: 1, Assoc: ways})
	for a := uint64(0); a < ways; a++ {
		if r := c.Access(a, a%2 == 0); r.Hit || r.Evicted {
			t.Fatalf("cold fill of line %d: %+v", a, r)
		}
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("line 0 missed in a full cache")
	}
	// Line 1 is now LRU.
	if r := c.Access(ways, false); !r.Evicted || r.EvictedAddr != 1 || r.EvictedDirty {
		t.Fatalf("expected clean eviction of line 1, got %+v", r)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache(t, 4096, 4)
	r := c.Access(1000, false)
	if r.Hit {
		t.Fatalf("first access should miss")
	}
	r = c.Access(1000, false)
	if !r.Hit {
		t.Fatalf("second access should hit")
	}
	// Same line, different offset within the 64-byte line (line base 960).
	r = c.Access(1000+16, true)
	if !r.Hit {
		t.Fatalf("same-line access should hit")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 || s.Writes != 1 || s.Reads != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2-way, 2 sets, 64B lines => 256 bytes.
	c := smallCache(t, 256, 2)
	// Three lines mapping to the same set (stride = sets*line = 128).
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a, false)
	c.Access(b, false)
	// Touch a so that b is LRU.
	c.Access(a, false)
	r := c.Access(d, false)
	if !r.Evicted || r.EvictedAddr != b {
		t.Fatalf("expected eviction of %d, got %+v", b, r)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Fatalf("LRU state wrong: a=%v b=%v d=%v", c.Contains(a), c.Contains(b), c.Contains(d))
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := smallCache(t, 256, 2)
	c.Access(0, true) // dirty
	c.Access(128, false)
	r := c.Access(256, false) // evicts LRU (addr 0, dirty)
	if !r.Evicted || !r.EvictedDirty || r.EvictedAddr != 0 {
		t.Fatalf("expected dirty eviction of line 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t, 4096, 4)
	c.Access(512, true)
	present, dirty := c.Invalidate(512)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Contains(512) {
		t.Fatalf("line still present after Invalidate")
	}
	present, _ = c.Invalidate(512)
	if present {
		t.Fatalf("second Invalidate should report absent")
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := smallCache(t, 4096, 4)
	for i := 0; i < 8; i++ {
		c.Access(uint64(i*64), i%2 == 0)
	}
	if c.OccupiedLines() != 8 {
		t.Fatalf("OccupiedLines = %d, want 8", c.OccupiedLines())
	}
	dirty := c.Flush()
	if dirty != 4 {
		t.Fatalf("Flush dirty = %d, want 4", dirty)
	}
	if c.OccupiedLines() != 0 {
		t.Fatalf("cache not empty after Flush")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set equal to the cache size, accessed repeatedly, should
	// incur only cold misses (fully-associative behaviour approximated by
	// LRU within sets; use stride matching set mapping to avoid conflict).
	c := smallCache(t, 64*1024, 4)
	lines := int64(64 * 1024 / 64)
	for pass := 0; pass < 5; pass++ {
		for i := int64(0); i < lines; i++ {
			c.Access(uint64(i*64), false)
		}
	}
	s := c.Stats()
	if s.Misses != lines {
		t.Fatalf("misses = %d, want %d (cold only)", s.Misses, lines)
	}
	if s.MissRate() >= 0.25 {
		t.Fatalf("miss rate %f too high", s.MissRate())
	}
}

func TestWorkingSetExceedsCapacityThrashes(t *testing.T) {
	// Sequential passes over 2x the cache size with LRU should miss on
	// every access (the classic LRU sequential-thrash behaviour).
	c := smallCache(t, 4*1024, 4)
	lines := int64(2 * 4 * 1024 / 64)
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < lines; i++ {
			c.Access(uint64(i*64), false)
		}
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Fatalf("hits = %d, want 0 for sequential thrash", s.Hits)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := smallCache(t, 4096, 4)
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatalf("stats not reset")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatalf("contents lost by ResetStats")
	}
}

func TestStatsAddAndMissRate(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4, Reads: 7, Writes: 3, Evictions: 2, Writebacks: 1}
	b := Stats{Accesses: 5, Hits: 5}
	a.Add(b)
	if a.Accesses != 15 || a.Hits != 11 || a.Misses != 4 {
		t.Fatalf("Add result %+v", a)
	}
	if got := a.MissRate(); got != 4.0/15.0 {
		t.Fatalf("MissRate = %f", got)
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Fatalf("empty MissRate should be 0")
	}
}

// Property: the number of occupied lines never exceeds capacity, and
// hits+misses always equals accesses.
func TestPropertyCacheInvariants(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := MustNew(Config{SizeBytes: 2048, LineBytes: 64, Assoc: 4, HitLatency: 1})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			return false
		}
		if s.Reads+s.Writes != s.Accesses {
			return false
		}
		return c.OccupiedLines() <= c.Config().Lines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an access immediately after the same access is always a hit.
func TestPropertyRepeatAccessHits(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustNew(Config{SizeBytes: 8192, LineBytes: 64, Assoc: 8, HitLatency: 1})
		for _, a := range addrs {
			c.Access(uint64(a), false)
			if r := c.Access(uint64(a), false); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{})
}

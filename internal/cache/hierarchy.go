package cache

import (
	"fmt"
	"math/bits"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMemory
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// HierarchyConfig configures a private-L1 / sliced-L2 hierarchy.  The zero
// Topology is the shared topology, so existing shared-L2 configurations are
// unchanged.
type HierarchyConfig struct {
	// Cores is the number of private L1 caches.
	Cores int
	// L1 is the per-core L1 configuration.
	L1 Config
	// L2 is the *total* L2 configuration; the topology divides it into
	// slices (see Topology.SliceConfig).
	L2 Config
	// Topology partitions the L2 capacity into slices and maps cores onto
	// them: shared (one slice, the paper's machine), private (one slice per
	// core) or clustered (ClusterSize cores per slice).
	Topology Topology
	// WriteInvalidate enables a simple directory that invalidates other
	// cores' L1 copies when a core writes a line.  It affects only
	// coherence statistics, not timing.
	WriteInvalidate bool
}

// HierarchyAccess is the outcome of one access through the hierarchy.
type HierarchyAccess struct {
	// Level is the level that satisfied the access (L1, L2, or memory).
	Level Level
	// Slice is the index of the L2 slice serving the accessing core (0 for
	// the shared topology).  Callers use it to charge the slice's hit
	// latency and to attribute off-chip traffic to the slice's port.
	Slice int
	// OffChipTransfers is the number of off-chip line transfers triggered:
	// 1 for the fetch when the access missed in L2, plus 1 if a dirty L2
	// victim must be written back.
	OffChipTransfers int
	// L1Evicted / L2Evicted report capacity displacement at each level.
	L1Evicted bool
	L2Evicted bool
	// Invalidations is the number of remote L1 copies invalidated (only
	// when WriteInvalidate is enabled).
	Invalidations int
}

// Hierarchy is a private-L1, sliced-L2 cache hierarchy.  With the shared
// topology (one slice) it is exactly the paper's machine.
type Hierarchy struct {
	cfg      HierarchyConfig
	l1s      []*Cache
	l2s      []*Cache
	sliceOf  []int      // core -> L2 slice index
	sliceL1s [][]*Cache // slice -> the L1s of the cores it serves
	sliceCfg Config
	dir      map[uint64]uint64 // line -> bitmask of cores with an L1 copy
	invs     int64

	// holders[s*l2Lines+slot] is a bitmask of cores that MAY hold, in their
	// L1, the line resident in slot `slot` of L2 slice s.  It is maintained
	// as a superset of the true holder set (bits go stale when an L1
	// silently drops its copy), which is sound: inclusive-victim
	// invalidation probes exactly the masked L1s instead of every L1 the
	// slice serves, and probing a non-holder is a statistics-free no-op.
	//
	// back[c*l1Lines+slot] is the back-pointer of core c's L1 slot: where
	// (as Cache.lastRef) in the core's L2 slice the line it holds was
	// filled from.  Inclusion (an L1 line is always present in its backing
	// slice) and slot stability keep that location valid while the L1 line
	// is resident, so a dirty L1 victim's write-back is a write hit at a
	// known slot rather than a set scan.  Inclusion also guarantees those
	// write-backs hit L2 and therefore never move lines between slots behind
	// the masks' back; if a write-back ever misses, probeAll pins the
	// hierarchy back to exhaustive probes and full write-back lookups so
	// classification stays identical.
	//
	// Both live in one allocation.
	holders  []uint64
	back     []uint64
	l1Lines  int
	l2Lines  int
	probeAll bool
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one core, got %d", cfg.Cores)
	}
	if cfg.Cores > 64 {
		return nil, fmt.Errorf("cache: hierarchy supports at most 64 cores, got %d", cfg.Cores)
	}
	if err := cfg.Topology.Validate(cfg.Cores); err != nil {
		return nil, err
	}
	// Inclusion, the holder masks and the back-pointers all assume each L1
	// line maps onto exactly one L2 line.
	if cfg.L1.LineBytes != cfg.L2.LineBytes {
		return nil, fmt.Errorf("cache: L1 line size %d differs from L2 line size %d", cfg.L1.LineBytes, cfg.L2.LineBytes)
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("cache: L1[%d]: %w", i, err)
		}
		h.l1s = append(h.l1s, l1)
	}
	h.sliceCfg = cfg.Topology.SliceConfig(cfg.L2, cfg.Cores)
	slices := cfg.Topology.Slices(cfg.Cores)
	for i := 0; i < slices; i++ {
		l2, err := New(h.sliceCfg)
		if err != nil {
			return nil, fmt.Errorf("cache: L2 slice[%d]: %w", i, err)
		}
		h.l2s = append(h.l2s, l2)
	}
	h.sliceOf = make([]int, cfg.Cores)
	h.sliceL1s = make([][]*Cache, slices)
	h.l1Lines = int(cfg.L1.Lines())
	h.l2Lines = int(h.sliceCfg.Lines())
	words := make([]uint64, slices*h.l2Lines+cfg.Cores*h.l1Lines)
	h.holders, h.back = words[:slices*h.l2Lines:slices*h.l2Lines], words[slices*h.l2Lines:]
	for c := 0; c < cfg.Cores; c++ {
		s := cfg.Topology.SliceOf(c, cfg.Cores)
		h.sliceOf[c] = s
		h.sliceL1s[s] = append(h.sliceL1s[s], h.l1s[c])
	}
	if cfg.WriteInvalidate {
		h.dir = make(map[uint64]uint64)
	}
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1 returns core's private L1 cache.
func (h *Hierarchy) L1(core int) *Cache { return h.l1s[core] }

// L2 returns the first L2 slice; with the shared topology this is the one
// shared L2 cache.
func (h *Hierarchy) L2() *Cache { return h.l2s[0] }

// NumSlices returns the number of L2 slices.
func (h *Hierarchy) NumSlices() int { return len(h.l2s) }

// L2Slice returns the i-th L2 slice.
func (h *Hierarchy) L2Slice(i int) *Cache { return h.l2s[i] }

// SliceOf returns the L2 slice index serving core.
func (h *Hierarchy) SliceOf(core int) int { return h.sliceOf[core] }

// SliceConfig returns the per-slice L2 configuration (capacity and latency
// already divided by the topology).
func (h *Hierarchy) SliceConfig() Config { return h.sliceCfg }

// Invalidations returns the total number of coherence invalidations.
func (h *Hierarchy) Invalidations() int64 { return h.invs }

// Access performs one memory access by core and classifies it.
func (h *Hierarchy) Access(core int, addr uint64, write bool) HierarchyAccess {
	if core < 0 || core >= len(h.l1s) {
		panic(fmt.Sprintf("cache: access from unknown core %d", core))
	}
	slice := h.sliceOf[core]
	out := HierarchyAccess{Slice: slice}
	l1 := h.l1s[core]
	l2 := h.l2s[slice]

	r1 := l1.Access(addr, write)
	out.L1Evicted = r1.Evicted
	if h.dir != nil {
		line := addr - addr%uint64(h.cfg.L2.LineBytes)
		h.trackL1(core, addr, line, write, r1, &out)
	}
	if r1.Hit {
		out.Level = LevelL1
		return out
	}

	// The L1 slot just filled, which held the victim.
	back := &h.back[core*h.l1Lines+l1.LastSlot()]

	// An L1 dirty victim is written back into the core's L2 slice (on-chip
	// traffic only).  Inclusion means the victim is still resident in L2 at
	// the slot its back-pointer names, so this is a write hit there; if the
	// slot does not hold the line, the full lookup decides, and a miss —
	// which would fill a slot without holder bookkeeping — drops the
	// hierarchy back to exhaustive victim probing.
	if r1.Evicted && r1.EvictedDirty && (h.probeAll || !l2.writeHit(*back, r1.EvictedAddr)) {
		wb := l2.Access(r1.EvictedAddr, true)
		if !wb.Hit {
			h.probeAll = true
		}
		if wb.Evicted && wb.EvictedDirty {
			out.OffChipTransfers++
		}
	}

	r2 := l2.Access(addr, write)
	*back = l2.lastRef()
	slot := h.l2Lines*slice + l2.LastSlot()
	out.L2Evicted = r2.Evicted
	if r2.Evicted {
		// Inclusive L2 slices: drop any stale L1 copies of the victim line
		// held by the cores this slice serves, so the model never holds
		// lines absent from their backing slice.  Only the recorded holders
		// need probing (Invalidate elsewhere is a no-op with no stats), which
		// turns the per-eviction cost from cores-per-slice probes into a
		// popcount-sized loop.
		if h.probeAll {
			for _, l1c := range h.sliceL1s[slice] {
				l1c.Invalidate(r2.EvictedAddr)
			}
		} else {
			for m := h.holders[slot]; m != 0; m &= m - 1 {
				h.l1s[bits.TrailingZeros64(m)].Invalidate(r2.EvictedAddr)
			}
		}
		if h.dir != nil {
			h.dropDir(r2.EvictedAddr, slice)
		}
		if r2.EvictedDirty {
			out.OffChipTransfers++
		}
	}
	if r2.Hit {
		h.holders[slot] |= 1 << uint(core)
		out.Level = LevelL2
		return out
	}
	h.holders[slot] = 1 << uint(core)
	out.Level = LevelMemory
	out.OffChipTransfers++
	return out
}

// dropDir removes from the directory the L1 copies belonging to slice's
// cores after an inclusive-L2 victim invalidation.
func (h *Hierarchy) dropDir(line uint64, slice int) {
	mask, ok := h.dir[line]
	if !ok {
		return
	}
	for c := range h.l1s {
		if h.sliceOf[c] == slice {
			mask &^= 1 << uint(c)
		}
	}
	if mask == 0 {
		delete(h.dir, line)
	} else {
		h.dir[line] = mask
	}
}

// trackL1 maintains the write-invalidate directory.
func (h *Hierarchy) trackL1(core int, addr, line uint64, write bool, r1 AccessResult, out *HierarchyAccess) {
	if r1.Evicted {
		evLine := r1.EvictedAddr - r1.EvictedAddr%uint64(h.cfg.L2.LineBytes)
		if mask, ok := h.dir[evLine]; ok {
			mask &^= 1 << uint(core)
			if mask == 0 {
				delete(h.dir, evLine)
			} else {
				h.dir[evLine] = mask
			}
		}
	}
	mask := h.dir[line]
	if write {
		// Invalidate all other copies.
		others := mask &^ (1 << uint(core))
		for c := 0; others != 0; c++ {
			if others&1 != 0 {
				if present, _ := h.l1s[c].Invalidate(addr); present {
					out.Invalidations++
					h.invs++
				}
			}
			others >>= 1
		}
		mask = 1 << uint(core)
	} else {
		mask |= 1 << uint(core)
	}
	h.dir[line] = mask
}

// L1Stats returns the aggregate statistics over all private L1 caches.
func (h *Hierarchy) L1Stats() Stats {
	var total Stats
	for _, c := range h.l1s {
		total.Add(c.Stats())
	}
	return total
}

// L2Stats returns the aggregate L2 statistics over all slices (for the
// shared topology this is the single shared L2's statistics, as before).
func (h *Hierarchy) L2Stats() Stats {
	var total Stats
	for _, c := range h.l2s {
		total.Add(c.Stats())
	}
	return total
}

// L2SliceStats returns a copy of each slice's statistics, indexed by slice.
func (h *Hierarchy) L2SliceStats() []Stats {
	out := make([]Stats, len(h.l2s))
	for i, c := range h.l2s {
		out[i] = c.Stats()
	}
	return out
}

// ResetStats clears statistics on every cache.
func (h *Hierarchy) ResetStats() {
	for _, c := range h.l1s {
		c.ResetStats()
	}
	for _, c := range h.l2s {
		c.ResetStats()
	}
	h.invs = 0
}

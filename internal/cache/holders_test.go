package cache

import (
	"math/rand"
	"testing"
)

// holderTestConfigs is a spread of hierarchy shapes for the masked-probe
// equivalence property: small caches force heavy eviction traffic, several
// topologies exercise multi-L1 slices, and WriteInvalidate adds the
// directory's own L1 invalidations to the mix.
func holderTestConfigs() []HierarchyConfig {
	l1 := Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}
	l2 := Config{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 4, HitLatency: 10}
	return []HierarchyConfig{
		{Cores: 4, L1: l1, L2: l2},
		{Cores: 8, L1: l1, L2: l2},
		{Cores: 8, L1: l1, L2: l2, WriteInvalidate: true},
		{Cores: 8, L1: l1, L2: l2, Topology: Topology{Kind: TopologyPrivate}},
		{Cores: 8, L1: l1, L2: l2, Topology: Topology{Kind: TopologyClustered, ClusterSize: 4}},
	}
}

// TestMaskedInvalidationMatchesExhaustiveProbe drives a masked hierarchy and
// a probe-everything hierarchy through an identical randomized access stream
// and requires identical classification at every step and identical final
// statistics.  This is the bit-identity claim behind the holder-mask
// optimisation: probing only recorded holders must be indistinguishable from
// probing every L1 the slice serves.
func TestMaskedInvalidationMatchesExhaustiveProbe(t *testing.T) {
	matchExhaustive(t, 100, nil)
}

// TestCorruptBackPointersFallBack pins the guard on the write-back
// back-pointers: corrupting a core's whole row mid-stream — pointers to
// other live slots, to sets past the slice and to ways past the set — must
// leave classification and statistics identical to the exhaustive
// hierarchy, because a write-back whose pointer does not name its line
// falls back to the full L2 lookup (which still hits, by inclusion).
func TestCorruptBackPointersFallBack(t *testing.T) {
	matchExhaustive(t, 200, func(h *Hierarchy, rng *rand.Rand) {
		core := rng.Intn(len(h.l1s))
		row := h.back[core*h.l1Lines : (core+1)*h.l1Lines]
		sets, assoc := uint64(h.sliceCfg.Sets()), h.sliceCfg.Assoc
		for i := range row {
			switch i % 3 {
			case 0:
				row[i] = uint64(rng.Int63n(int64(sets)))<<16 | uint64(rng.Intn(assoc))
			case 1:
				row[i] = (sets+uint64(i))<<16 | uint64(rng.Intn(assoc))
			default:
				row[i] = uint64(assoc + i)
			}
		}
	})
}

// matchExhaustive runs every holderTestConfigs shape through a hierarchy
// and an exhaustive-probe twin (seeded from seed) and fails on the first
// divergence.  A non-nil corrupt is applied to the fast hierarchy halfway
// through; until then its back-pointers are checked as it runs.
func matchExhaustive(t *testing.T, seed int64, corrupt func(*Hierarchy, *rand.Rand)) {
	const steps = 200000
	for ci, cfg := range holderTestConfigs() {
		masked, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		exhaustive, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		// Forcing the fallback flag makes every inclusive-victim probe walk
		// all of the slice's L1s and every write-back scan its L2 set — the
		// behaviour before holder masks and back-pointers.
		exhaustive.probeAll = true

		rng := rand.New(rand.NewSource(seed + int64(ci)))
		// A footprint a few times the L2 keeps hits, misses and evictions
		// all common; a handful of hot lines maximises cross-core sharing.
		lines := int64(4 * cfg.L2.SizeBytes / cfg.L2.LineBytes)
		for step := 0; step < steps; step++ {
			corrupted := corrupt != nil && step >= steps/2
			if corrupted && step == steps/2 {
				corrupt(masked, rng)
			}
			core := rng.Intn(cfg.Cores)
			var line int64
			if rng.Intn(4) == 0 {
				line = int64(rng.Intn(16)) // hot shared lines
			} else {
				line = rng.Int63n(lines)
			}
			addr := uint64(line)*uint64(cfg.L2.LineBytes) + uint64(rng.Intn(int(cfg.L2.LineBytes)))
			write := rng.Intn(3) == 0
			got := masked.Access(core, addr, write)
			want := exhaustive.Access(core, addr, write)
			if got != want {
				t.Fatalf("config %d step %d (core %d addr %#x write %v): masked %+v, exhaustive %+v",
					ci, step, core, addr, write, got, want)
			}
			if step%1000 == 0 && !corrupted {
				checkBackPointers(t, masked)
			}
		}
		if g, w := masked.L1Stats(), exhaustive.L1Stats(); g != w {
			t.Fatalf("config %d: L1 stats diverged: %+v vs %+v", ci, g, w)
		}
		if g, w := masked.L2Stats(), exhaustive.L2Stats(); g != w {
			t.Fatalf("config %d: L2 stats diverged: %+v vs %+v", ci, g, w)
		}
		if g, w := masked.Invalidations(), exhaustive.Invalidations(); g != w {
			t.Fatalf("config %d: coherence invalidations diverged: %d vs %d", ci, g, w)
		}
		// The fallback must never have tripped on the masked side: inclusion
		// guarantees L1 write-backs hit L2, whatever the back-pointers say.
		if masked.probeAll {
			t.Fatalf("config %d: masked hierarchy fell back to exhaustive probing", ci)
		}
	}
}

// checkBackPointers requires every line resident in an L1 to sit, in the
// core's L2 slice, exactly where its back-pointer says: the invariant that
// lets a dirty victim's write-back skip the L2 set scan.
func checkBackPointers(t *testing.T, h *Hierarchy) {
	t.Helper()
	for core, l1 := range h.l1s {
		l2 := h.l2s[h.sliceOf[core]]
		for set := range l1.numSets {
			tags, _, st := l1.set(set)
			for way := range tags {
				if st[way]&lineValid == 0 {
					continue
				}
				ref := h.back[core*h.l1Lines+set*l1.assoc+way]
				l2tags, _, l2st := l2.set(int(ref >> 16))
				if w := ref & 0xffff; l2tags[w] != tags[way] || l2st[w]&lineValid == 0 {
					t.Fatalf("core %d: L1 line %#x has a back-pointer to set %d way %d, which holds %#x (state %#x)",
						core, tags[way], ref>>16, w, l2tags[w], l2st[w])
				}
			}
		}
	}
}

// TestLastSlotIdentifiesResidentLine pins the Cache.LastSlot contract the
// holder masks are built on: after any Access, the slot holds the accessed
// line, and the slot is stable across re-touches until eviction.
func TestLastSlotIdentifiesResidentLine(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1})
	rng := rand.New(rand.NewSource(7))
	slotOf := make(map[uint64]int)
	for step := 0; step < 20000; step++ {
		addr := uint64(rng.Intn(64)) * 64
		r := c.Access(addr, rng.Intn(2) == 0)
		slot := c.LastSlot()
		if slot < 0 || slot >= int(c.Config().Lines()) {
			t.Fatalf("step %d: slot %d out of range", step, slot)
		}
		if r.Hit {
			if want, ok := slotOf[addr]; ok && want != slot {
				t.Fatalf("step %d: line %#x moved slots %d -> %d without eviction", step, addr, want, slot)
			}
		}
		if r.Evicted {
			delete(slotOf, r.EvictedAddr)
		}
		slotOf[addr] = slot
	}
}

// TestHierarchyRejectsMismatchedLineSizes: inclusion, the holder masks and
// the back-pointers all assume one L2 line per L1 line.
func TestHierarchyRejectsMismatchedLineSizes(t *testing.T) {
	l1 := Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}
	l2 := Config{SizeBytes: 8 << 10, LineBytes: 128, Assoc: 4, HitLatency: 10}
	if _, err := NewHierarchy(HierarchyConfig{Cores: 2, L1: l1, L2: l2}); err == nil {
		t.Fatal("NewHierarchy accepted 64-byte L1 lines over 128-byte L2 lines")
	}
	l2.LineBytes = 64
	if _, err := NewHierarchy(HierarchyConfig{Cores: 2, L1: l1, L2: l2}); err != nil {
		t.Fatalf("NewHierarchy rejected matching line sizes: %v", err)
	}
}

package cache

import (
	"math/rand"
	"testing"
)

// Figure 2's geometry: a 64 KB 4-way private L1 and a 10 MB 20-way shared
// L2, both with 128-byte lines.
var (
	benchL1 = Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 4, HitLatency: 1}
	benchL2 = Config{SizeBytes: 10 << 20, LineBytes: 128, Assoc: 20, HitLatency: 19}
)

// benchLines returns n line-aligned addresses drawn uniformly from a
// footprint of the given number of lines.
func benchLines(rng *rand.Rand, n int, footprint int64) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(footprint)) * 128
	}
	return addrs
}

// BenchmarkCacheAccess times one Cache.Access per op on each of the three
// paths the simulator's hierarchy takes: an L1 hit, an L2 hit in a set
// whose recency order shuffles, and an L2 miss that evicts a (partly dirty)
// victim.  The caches are warmed before the timed loop.
func BenchmarkCacheAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l2Lines := benchL2.Lines()
	cases := []struct {
		name  string
		cfg   Config
		addrs []uint64
	}{
		// Half the L1's lines: every access hits.
		{"l1-hit", benchL1, benchLines(rng, 1<<12, benchL1.Lines()/2)},
		// Three quarters of the L2: every access hits, at a random depth.
		{"l2-hit", benchL2, benchLines(rng, 1<<16, 3*l2Lines/4)},
		// A sequential sweep over twice the L2: every access misses and
		// evicts the set's LRU way.
		{"l2-miss-evict", benchL2, func() []uint64 {
			addrs := make([]uint64, 2*l2Lines)
			for i := range addrs {
				addrs[i] = uint64(i) * 128
			}
			return addrs
		}()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := MustNew(tc.cfg)
			for _, a := range tc.addrs {
				c.Access(a, a&(3<<7) == 0)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				a := tc.addrs[i%len(tc.addrs)]
				c.Access(a, a&(3<<7) == 0)
			}
		})
	}
}

// BenchmarkHierarchyAccess times one Hierarchy.Access per op at P = 8 on
// the shared, private and clustered topologies.  Each core draws from a
// private region plus a shared one, together larger than the L2, with a
// third of the accesses writes: dirty L1 victims are written back and L2
// evictions invalidate inclusive L1 copies on most ops.
func BenchmarkHierarchyAccess(b *testing.B) {
	const cores = 8
	rng := rand.New(rand.NewSource(2))
	type ref struct {
		core  int
		addr  uint64
		write bool
	}
	l2Lines := benchL2.Lines()
	refs := make([]ref, 1<<16)
	for i := range refs {
		core := rng.Intn(cores)
		line := rng.Int63n(l2Lines / 2) // shared region
		if rng.Intn(2) == 0 {
			line = l2Lines/2 + int64(core)*l2Lines/4 + rng.Int63n(l2Lines/4)
		}
		refs[i] = ref{core, uint64(line) * 128, rng.Intn(3) == 0}
	}
	for _, topo := range []string{"shared", "private", "clustered:4"} {
		b.Run(topo, func(b *testing.B) {
			h, err := NewHierarchy(HierarchyConfig{Cores: cores, L1: benchL1, L2: benchL2, Topology: MustParseTopology(topo)})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range refs {
				h.Access(r.core, r.addr, r.write)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				r := &refs[i%len(refs)]
				h.Access(r.core, r.addr, r.write)
			}
		})
	}
}

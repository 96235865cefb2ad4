package refs

import (
	"sort"
	"testing"
)

// benchGens builds one generator of every shape, each about 64k references
// long, for the drain benchmarks.
func benchGens() map[string]Gen {
	const n = 1 << 16
	rs := make([]Ref, n)
	for i := range rs {
		rs[i] = Ref{Addr: uint64(i) * 64, Write: i%3 == 0, Instrs: int64(i % 7)}
	}
	scan := func(base uint64) Gen { return NewScan(base, 64*n, 64, 2) }
	return map[string]Gen{
		"points":  NewPoints(rs, 9),
		"scan":    scan(1 << 20),
		"strided": &Strided{Base: 1 << 21, StrideBytes: 192, Count: n, InstrsPerRef: 2},
		"random":  &Random{Base: 1 << 22, Bytes: 1 << 22, LineBytes: 64, Count: n, Seed: 7, InstrsPerRef: 4},
		"concat": NewConcat(
			NewScan(1<<20, 64*n/4, 64, 1),
			&Strided{Base: 1 << 21, StrideBytes: 64, Count: n / 4, InstrsPerRef: 2},
			&Random{Base: 1 << 22, Bytes: 1 << 20, LineBytes: 64, Count: n / 2, Seed: 3, InstrsPerRef: 1},
		),
		"interleave": NewInterleave(
			NewScan(1<<20, 64*n/2, 64, 1),
			&Random{Base: 1 << 22, Bytes: 1 << 20, LineBytes: 64, Count: n / 2, Seed: 3, InstrsPerRef: 1},
		),
		"repeat":   NewRepeat(NewScan(1<<20, 64*n/16, 64, 2), 16),
		"withtail": NewWithTail(scan(1<<20), 33),
		"recorded": Record(scan(1 << 20)),
	}
}

// BenchmarkNextBlock drains each generator shape in BlockSize blocks, the
// way recording consumes every task stream, and reports the cost per
// reference.
func BenchmarkNextBlock(b *testing.B) {
	gens := benchGens()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := gens[name]
		b.Run(name, func(b *testing.B) {
			buf := make([]Ref, BlockSize)
			var refs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				for n := g.NextBlock(buf); n > 0; n = g.NextBlock(buf) {
					refs += int64(n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
		})
	}
}

package refs

import (
	"slices"
	"testing"
	"testing/quick"

	"cmpsched/internal/prng"
)

// drain reads g to exhaustion in blocks of 5 references, a size that
// divides none of the fixtures' lengths, so short final blocks are covered.
func drain(t *testing.T, g Gen) []Ref {
	t.Helper()
	return drainBlocks(t, g, 5)
}

// drainBlocks reads g to exhaustion through NextBlock with a bs-sized
// buffer.
func drainBlocks(t *testing.T, g Gen, bs int) []Ref {
	t.Helper()
	var out []Ref
	buf := make([]Ref, bs)
	for {
		n := g.NextBlock(buf)
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
		if len(out) > 1<<22 {
			t.Fatalf("generator did not terminate")
		}
	}
	return out
}

func TestEmpty(t *testing.T) {
	var g Empty
	if g.Len() != 0 || g.Instrs() != 0 {
		t.Fatalf("Empty should have no refs or instrs")
	}
	if n := g.NextBlock(make([]Ref, 4)); n != 0 {
		t.Fatalf("Empty.NextBlock returned %d refs", n)
	}
}

func TestCompute(t *testing.T) {
	g := Compute{N: 123}
	if g.Len() != 0 {
		t.Fatalf("Compute.Len = %d, want 0", g.Len())
	}
	if g.Instrs() != 123 {
		t.Fatalf("Compute.Instrs = %d, want 123", g.Instrs())
	}
	if n := g.NextBlock(make([]Ref, 4)); n != 0 {
		t.Fatalf("Compute.NextBlock returned %d refs", n)
	}
}

func TestPoints(t *testing.T) {
	rs := []Ref{{Addr: 0, Instrs: 2}, {Addr: 64, Write: true, Instrs: 3}}
	g := NewPoints(rs, 5)
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if g.Instrs() != 10 {
		t.Fatalf("Instrs = %d, want 10", g.Instrs())
	}
	got := drain(t, g)
	if len(got) != 2 || got[1].Addr != 64 || !got[1].Write {
		t.Fatalf("unexpected refs %+v", got)
	}
	// After Reset the stream replays identically.
	g.Reset()
	got2 := drain(t, g)
	if len(got2) != len(got) {
		t.Fatalf("replay length %d, want %d", len(got2), len(got))
	}
}

func TestScanAddressesAndCounts(t *testing.T) {
	g := &Scan{Base: 1 << 20, Bytes: 1024, LineBytes: 128, InstrsPerRef: 4, Passes: 1}
	if g.Len() != 8 {
		t.Fatalf("Len = %d, want 8", g.Len())
	}
	if g.Instrs() != 32 {
		t.Fatalf("Instrs = %d, want 32", g.Instrs())
	}
	rs := drain(t, g)
	if len(rs) != 8 {
		t.Fatalf("drained %d refs, want 8", len(rs))
	}
	for i, r := range rs {
		want := uint64(1<<20 + i*128)
		if r.Addr != want {
			t.Fatalf("ref %d addr=%d, want %d", i, r.Addr, want)
		}
		if r.Instrs != 4 {
			t.Fatalf("ref %d instrs=%d, want 4", i, r.Instrs)
		}
	}
}

func TestScanMultiplePasses(t *testing.T) {
	g := &Scan{Base: 0, Bytes: 256, LineBytes: 64, Passes: 3}
	if g.Len() != 12 {
		t.Fatalf("Len = %d, want 12", g.Len())
	}
	rs := drain(t, g)
	if len(rs) != 12 {
		t.Fatalf("drained %d, want 12", len(rs))
	}
	// The second pass revisits the same addresses.
	if rs[0].Addr != rs[4].Addr || rs[3].Addr != rs[7].Addr {
		t.Fatalf("passes do not revisit addresses: %+v", rs)
	}
}

func TestScanRoundsUpPartialLine(t *testing.T) {
	g := &Scan{Base: 0, Bytes: 100, LineBytes: 64, Passes: 1}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (100 bytes spans 2 lines)", g.Len())
	}
}

func TestScanZeroPassesTreatedAsOne(t *testing.T) {
	g := &Scan{Base: 0, Bytes: 128, LineBytes: 64}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

func TestStrided(t *testing.T) {
	g := &Strided{Base: 1000, StrideBytes: 256, Count: 4, InstrsPerRef: 7, Write: true}
	rs := drain(t, g)
	if len(rs) != 4 {
		t.Fatalf("drained %d, want 4", len(rs))
	}
	for i, r := range rs {
		if r.Addr != uint64(1000+256*i) {
			t.Fatalf("ref %d addr=%d", i, r.Addr)
		}
		if !r.Write {
			t.Fatalf("ref %d should be a write", i)
		}
	}
	if g.Instrs() != 28 {
		t.Fatalf("Instrs = %d, want 28", g.Instrs())
	}
}

func TestRandomDeterministicAndInRange(t *testing.T) {
	mk := func() *Random {
		return &Random{Base: 4096, Bytes: 8192, LineBytes: 64, Count: 200, Seed: 42, InstrsPerRef: 3}
	}
	a := drain(t, mk())
	b := drain(t, mk())
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("lengths %d, %d, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Addr < 4096 || a[i].Addr >= 4096+8192 {
			t.Fatalf("ref %d addr %d outside region", i, a[i].Addr)
		}
		if a[i].Addr%64 != 0 {
			t.Fatalf("ref %d addr %d not line aligned", i, a[i].Addr)
		}
	}
}

func TestRandomDifferentSeedsDiffer(t *testing.T) {
	a := drain(t, &Random{Bytes: 1 << 20, LineBytes: 64, Count: 64, Seed: 1})
	b := drain(t, &Random{Bytes: 1 << 20, LineBytes: 64, Count: 64, Seed: 2})
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestRandomResetReplays(t *testing.T) {
	g := &Random{Bytes: 1 << 16, LineBytes: 64, Count: 50, Seed: 7}
	a := drain(t, g)
	g.Reset()
	b := drain(t, g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reset replay differs at %d", i)
		}
	}
}

func TestConcat(t *testing.T) {
	a := &Scan{Base: 0, Bytes: 128, LineBytes: 64, InstrsPerRef: 1}
	b := &Scan{Base: 1024, Bytes: 128, LineBytes: 64, InstrsPerRef: 2}
	g := NewConcat(a, nil, b)
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if g.Instrs() != 2+4 {
		t.Fatalf("Instrs = %d, want 6", g.Instrs())
	}
	rs := drain(t, g)
	if rs[0].Addr != 0 || rs[2].Addr != 1024 {
		t.Fatalf("unexpected order %+v", rs)
	}
	g.Reset()
	if again := drain(t, g); len(again) != 4 {
		t.Fatalf("reset drain %d, want 4", len(again))
	}
}

func TestConcatAppend(t *testing.T) {
	g := NewConcat()
	g.Append(&Strided{Base: 0, StrideBytes: 64, Count: 2})
	g.Append(nil, &Strided{Base: 512, StrideBytes: 64, Count: 3})
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestInterleave(t *testing.T) {
	a := &Strided{Base: 0, StrideBytes: 64, Count: 3, InstrsPerRef: 1}
	b := &Strided{Base: 1 << 20, StrideBytes: 64, Count: 2, InstrsPerRef: 1}
	g := NewInterleave(a, b)
	rs := drain(t, g)
	if len(rs) != 5 {
		t.Fatalf("drained %d, want 5", len(rs))
	}
	// Pattern a b a b a.
	wantHigh := []bool{false, true, false, true, false}
	for i, r := range rs {
		high := r.Addr >= 1<<20
		if high != wantHigh[i] {
			t.Fatalf("position %d from wrong stream (addr=%d)", i, r.Addr)
		}
	}
}

// TestInterleaveMatchesAlternation pins Interleave against a reference
// alternation of the two sides' drained streams, with sides longer than a
// block and of unequal lengths, nested, at every output block size, and
// across a Reset taken mid-stream.
func TestInterleaveMatchesAlternation(t *testing.T) {
	sideA := func() Gen {
		return &Random{Base: 1 << 22, Bytes: 1 << 14, LineBytes: 64, Count: 150, Seed: 5, InstrsPerRef: 1}
	}
	sideB := func() Gen { return NewScan(1<<20, 64*40, 64, 2) }
	want := alternate(t, alternate(t, drainBlocks(t, sideA(), 1), drainBlocks(t, sideB(), 1)),
		drainBlocks(t, NewRepeat(NewScan(1<<24, 64*3, 64, 0), 70), 1))
	mk := func() Gen {
		return NewInterleave(NewInterleave(sideA(), sideB()), NewRepeat(NewScan(1<<24, 64*3, 64, 0), 70))
	}
	for _, bs := range []int{1, 7, BlockSize, 1000} {
		g := mk()
		drainBlocks(t, g, 3)
		g.Reset()
		if got := drainBlocks(t, g, bs); !slices.Equal(got, want) {
			t.Fatalf("bs=%d: interleave drained %d refs, differing from the reference alternation of %d", bs, len(got), len(want))
		}
	}
}

// alternate is the reference Interleave: a, b, a, b, ... one reference at a
// time, then the rest of whichever side is longer.
func alternate(t *testing.T, a, b []Ref) []Ref {
	t.Helper()
	out := make([]Ref, 0, len(a)+len(b))
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

func TestRepeat(t *testing.T) {
	inner := &Strided{Base: 0, StrideBytes: 64, Count: 3, InstrsPerRef: 2}
	g := NewRepeat(inner, 4)
	if g.Len() != 12 {
		t.Fatalf("Len = %d, want 12", g.Len())
	}
	if g.Instrs() != 24 {
		t.Fatalf("Instrs = %d, want 24", g.Instrs())
	}
	rs := drain(t, g)
	if len(rs) != 12 {
		t.Fatalf("drained %d, want 12", len(rs))
	}
	if rs[0].Addr != rs[3].Addr {
		t.Fatalf("repeat rounds do not revisit addresses")
	}
	g.Reset()
	if len(drain(t, g)) != 12 {
		t.Fatalf("reset drain mismatch")
	}
}

func TestWithTail(t *testing.T) {
	inner := &Strided{Base: 0, StrideBytes: 64, Count: 2, InstrsPerRef: 5}
	g := NewWithTail(inner, 100)
	if g.Instrs() != 110 {
		t.Fatalf("Instrs = %d, want 110", g.Instrs())
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

// TestCollectAndCount collects a stream and counts what came back: the
// references and their instruction total, and that the generator is left
// rewound.
func TestCollectAndCount(t *testing.T) {
	g := &Scan{Base: 0, Bytes: 512, LineBytes: 64, InstrsPerRef: 3}
	rs := Collect(g)
	var instrs int64
	for _, r := range rs {
		instrs += r.Instrs
	}
	if len(rs) != 8 || instrs != 24 {
		t.Fatalf("Collect returned %d refs retiring %d instructions, want 8 and 24", len(rs), instrs)
	}
	if len(drain(t, g)) != 8 {
		t.Fatalf("generator not reset after Collect")
	}
}

// longerThanLen claims fewer references than it produces.
type longerThanLen struct{ Scan }

func (g *longerThanLen) Len() int64 { return g.Scan.Len() - 3 }

// TestCollectKeepsStreamLongerThanLen pins that Collect drains to
// exhaustion rather than trusting Len.
func TestCollectKeepsStreamLongerThanLen(t *testing.T) {
	g := &longerThanLen{Scan{Base: 0, Bytes: 64 * 200, LineBytes: 64, InstrsPerRef: 1}}
	if got := len(Collect(g)); got != 200 {
		t.Fatalf("Collect returned %d refs, want 200", got)
	}
}

// Property: for every generator construction and every buffer size (one
// reference, a size dividing no stream evenly, and BlockSize), the number
// of refs drained equals Len(), the drained instruction total never exceeds
// Instrs(), and every buffer size drains the same sequence.
func TestPropertyLenMatchesDrain(t *testing.T) {
	f := func(baseSeed uint64, nSmall uint8, stride uint8, passes uint8) bool {
		n := int64(nSmall%64) + 1
		st := int64(stride%8+1) * 64
		p := int(passes%3) + 1
		base := baseSeed % (1 << 30)
		all := NewConcat(
			&Scan{Base: base, Bytes: n * 64, LineBytes: 64, InstrsPerRef: 2, Passes: p},
			&Strided{Base: base, StrideBytes: st, Count: n, InstrsPerRef: 1},
			&Random{Base: base, Bytes: n * 256, LineBytes: 64, Count: n, Seed: baseSeed},
			NewInterleave(NewScan(base, n*64, 64, 1), NewRepeat(&Strided{Base: base, StrideBytes: st, Count: n}, p)),
		)
		var first []Ref
		for _, bs := range []int{1, 7, BlockSize} {
			all.Reset()
			rs := drainBlocks(t, all, bs)
			var instrs int64
			for _, r := range rs {
				instrs += r.Instrs
			}
			if int64(len(rs)) != all.Len() || instrs > all.Instrs() {
				return false
			}
			if first == nil {
				first = rs
			} else if !slices.Equal(rs, first) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reset always replays an identical stream.
func TestPropertyResetReplay(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		g := NewConcat(
			&Random{Bytes: 1 << 18, LineBytes: 64, Count: int64(count%50) + 1, Seed: seed},
			&Scan{Base: 1 << 20, Bytes: int64(count%20+1) * 64, LineBytes: 64},
		)
		a := Collect(g)
		b := Collect(g)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Fatalf("mul64(2^32,2^32) = (%d,%d), want (1,0)", hi, lo)
	}
	hi, lo = mul64(0xffffffffffffffff, 2)
	if hi != 1 || lo != 0xfffffffffffffffe {
		t.Fatalf("mul64 overflow case wrong: (%d,%d)", hi, lo)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := &prng.SplitMix64{State: 99}
	for i := 0; i < 1000; i++ {
		v := intn(r, 17)
		if v >= 17 {
			t.Fatalf("intn(17) produced %d", v)
		}
	}
}

// bulkFixtures builds one instance of every generator shape for the block
// contract tests.  Each entry is a factory so tests can build independent
// identical streams.
func bulkFixtures() map[string]func() Gen {
	points := func() Gen {
		rs := make([]Ref, 0, 200)
		for i := 0; i < 200; i++ {
			rs = append(rs, Ref{Addr: uint64(i * 64), Write: i%3 == 0, Instrs: int64(i % 7)})
		}
		return NewPoints(rs, 9)
	}
	return map[string]func() Gen{
		"empty":   func() Gen { return Empty{} },
		"compute": func() Gen { return Compute{N: 10} },
		"points":  points,
		"scan":    func() Gen { return &Scan{Base: 1 << 20, Bytes: 4096, LineBytes: 64, InstrsPerRef: 3, Passes: 3} },
		"strided": func() Gen { return &Strided{Base: 1 << 21, StrideBytes: 192, Count: 173, InstrsPerRef: 2} },
		"random": func() Gen {
			return &Random{Base: 1 << 22, Bytes: 1 << 16, LineBytes: 64, Count: 301, Seed: 7, InstrsPerRef: 4}
		},
		"concat": func() Gen {
			return NewConcat(
				NewScan(1<<20, 1000, 64, 1),
				&Strided{Base: 1 << 21, StrideBytes: 64, Count: 5, InstrsPerRef: 2},
				Empty{},
				&Random{Base: 1 << 22, Bytes: 1 << 12, LineBytes: 64, Count: 77, Seed: 3, InstrsPerRef: 1},
			)
		},
		"interleave": func() Gen {
			return NewInterleave(
				NewScan(1<<20, 900, 64, 1),
				&Strided{Base: 1 << 21, StrideBytes: 128, Count: 40, InstrsPerRef: 2},
			)
		},
		"repeat":   func() Gen { return NewRepeat(NewScan(1<<20, 500, 64, 2), 4) },
		"withtail": func() Gen { return NewWithTail(NewScan(1<<20, 700, 64, 1), 33) },
		"recorded": func() Gen { return Record(NewScan(1<<20, 900, 64, 2)) },
		"interned": func() Gen {
			return NewTraceStore().Intern(&Strided{Base: 1 << 21, StrideBytes: 256, Count: 99, InstrsPerRef: 3})
		},
	}
}

// TestAllGeneratorsImplementBulk pins the block contract every generator
// here implements natively: each drains the same sequence at every buffer
// size, fills the buffer fully until its final block, reports exhaustion
// with 0 and keeps doing so, and an empty buffer neither advances the
// stream nor signals exhaustion.
func TestAllGeneratorsImplementBulk(t *testing.T) {
	for name, mk := range bulkFixtures() {
		want := drainBlocks(t, mk(), 1)
		for _, bs := range []int{3, BlockSize, 1000} {
			g := mk()
			if n := g.NextBlock(nil); n != 0 {
				t.Fatalf("%s: NextBlock(nil) = %d", name, n)
			}
			var got []Ref
			buf := make([]Ref, bs)
			for {
				n := g.NextBlock(buf)
				if n == 0 {
					break
				}
				if n < bs && len(got)+n != len(want) {
					t.Fatalf("%s bs=%d: short block of %d refs at %d of %d", name, bs, n, len(got), len(want))
				}
				got = append(got, buf[:n]...)
			}
			if g.NextBlock(buf) != 0 {
				t.Fatalf("%s bs=%d: refs after exhaustion", name, bs)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s bs=%d: %d refs, differing from the one-at-a-time drain of %d", name, bs, len(got), len(want))
			}
			g.Reset()
			if again := drainBlocks(t, g, bs); !slices.Equal(again, want) {
				t.Fatalf("%s bs=%d: post-Reset drain differs", name, bs)
			}
		}
	}
}

// TestPointsInstrsCached guards the O(1) Instrs satellite fix: the total is
// computed once, stays correct across Reset/drain cycles, and NewPoints
// precomputes it.
func TestPointsInstrsCached(t *testing.T) {
	rs := []Ref{{Addr: 0, Instrs: 2}, {Addr: 64, Instrs: 3}, {Addr: 128, Instrs: 4}}
	p := NewPoints(rs, 5)
	if got := p.Instrs(); got != 14 {
		t.Fatalf("Instrs = %d, want 14", got)
	}
	drain(t, p)
	p.Reset()
	if got := p.Instrs(); got != 14 {
		t.Fatalf("Instrs after drain = %d, want 14", got)
	}
	// Zero-value construction computes lazily.
	lazy := &Points{Refs: rs, Tail: 1}
	if got := lazy.Instrs(); got != 10 {
		t.Fatalf("lazy Instrs = %d, want 10", got)
	}
	if got := lazy.Instrs(); got != 10 {
		t.Fatalf("lazy Instrs second call = %d, want 10", got)
	}
}

// TestConcatTotalsCachedAndInvalidated guards Concat's cached Len/Instrs
// sums and their invalidation on Append.
func TestConcatTotalsCachedAndInvalidated(t *testing.T) {
	c := NewConcat(NewScan(0, 640, 64, 2))
	if c.Len() != 10 || c.Instrs() != 20 {
		t.Fatalf("Len/Instrs = %d/%d, want 10/20", c.Len(), c.Instrs())
	}
	if c.Len() != 10 || c.Instrs() != 20 {
		t.Fatalf("cached Len/Instrs = %d/%d, want 10/20", c.Len(), c.Instrs())
	}
	c.Append(&Strided{Base: 1 << 20, StrideBytes: 64, Count: 4, InstrsPerRef: 3})
	if c.Len() != 14 || c.Instrs() != 32 {
		t.Fatalf("post-Append Len/Instrs = %d/%d, want 14/32", c.Len(), c.Instrs())
	}
}

package refs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestRecordedMatchesSource pins the recording contract over every generator
// shape: Record(g) reports the same Len and Instrs totals and drains the
// identical reference sequence.
func TestRecordedMatchesSource(t *testing.T) {
	for name, mk := range bulkFixtures() {
		want := drain(t, mk())
		src := mk()
		r := Record(src)
		if r.Len() != src.Len() || r.Instrs() != src.Instrs() {
			t.Fatalf("%s: recorded totals (%d, %d), want (%d, %d)",
				name, r.Len(), r.Instrs(), src.Len(), src.Instrs())
		}
		got := drain(t, r)
		if len(got) != len(want) {
			t.Fatalf("%s: recorded %d refs, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: recorded ref %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
		// Record promises to leave the source rewound.
		if again := drain(t, src); len(again) != len(want) {
			t.Fatalf("%s: source drained %d refs after Record, want %d", name, len(again), len(want))
		}
	}
}

// TestRecordedResetMidStream drains part of a recording through each API,
// resets, and requires a full identical replay — the Bulk-suite Reset
// behaviour, plus the Sliced fast path.
func TestRecordedResetMidStream(t *testing.T) {
	r := Record(NewScan(1<<20, 1000, 64, 2))
	want := drain(t, r)
	r.Reset()

	buf := make([]Ref, 3)
	r.NextBlock(buf)
	r.NextBlock(buf[:1])
	r.Reset()
	if got := drain(t, r); len(got) != len(want) {
		t.Fatalf("post-Reset drain: %d refs, want %d", len(got), len(want))
	}

	r.Reset()
	r.NextBlock(buf[:1])
	rest := r.NextSlice()
	if len(rest) != len(want)-1 {
		t.Fatalf("NextSlice after one ref: %d refs, want %d", len(rest), len(want)-1)
	}
	for i := range rest {
		if rest[i] != want[i+1] {
			t.Fatalf("NextSlice ref %d = %+v, want %+v", i, rest[i], want[i+1])
		}
	}
	if more := r.NextSlice(); len(more) != 0 {
		t.Fatalf("second NextSlice returned %d refs, want 0", len(more))
	}
	if n := r.NextBlock(buf); n != 0 {
		t.Fatalf("NextBlock after NextSlice exhaustion returned %d refs", n)
	}
	r.Reset()
	if got := drain(t, r); len(got) != len(want) {
		t.Fatalf("drain after NextSlice+Reset: %d refs, want %d", len(got), len(want))
	}
}

// TestRecordedZeroLengthBuffer pins that an empty destination neither
// advances the stream nor signals exhaustion by accident.
func TestRecordedZeroLengthBuffer(t *testing.T) {
	r := Record(NewScan(1<<20, 256, 64, 1))
	if n := r.NextBlock(nil); n != 0 {
		t.Fatalf("NextBlock(nil) = %d, want 0", n)
	}
	if n := r.NextBlock([]Ref{}); n != 0 {
		t.Fatalf("NextBlock(empty) = %d, want 0", n)
	}
	got := drain(t, r)
	if int64(len(got)) != r.Len() {
		t.Fatalf("zero-length reads consumed refs: drained %d, want %d", len(got), r.Len())
	}
}

// TestCloneIndependentCursors runs two clones over one arena at different
// paces and requires identical streams.
func TestCloneIndependentCursors(t *testing.T) {
	r := Record(&Random{Base: 1 << 22, Bytes: 1 << 14, LineBytes: 64, Count: 150, Seed: 11, InstrsPerRef: 2})
	a, b := r.Clone(), r.Clone()
	want := drain(t, r.Clone())
	var got []Ref
	buf := make([]Ref, 7)
	if !slices.Equal(r.Refs(), want) {
		t.Fatalf("Refs() differs from the drained stream")
	}
	for {
		n := a.NextBlock(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
		b.NextBlock(buf[:1]) // interleave the other cursor; it must not disturb a
	}
	if len(got) != len(want) {
		t.Fatalf("clone drained %d refs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("clone ref %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestInternSharesArenas pins the content-addressing: identical streams share
// one arena (pointer-identical backing storage), distinct streams do not,
// and the stats ledger counts both accurately.
func TestInternSharesArenas(t *testing.T) {
	s := NewTraceStore()
	mk := func() Gen { return NewScan(1<<20, 640, 64, 2) }
	a := s.Intern(mk())
	b := s.Intern(mk())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical streams fingerprint differently: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	sa, sb := a.NextSlice(), b.NextSlice()
	if len(sa) == 0 || &sa[0] != &sb[0] {
		t.Fatalf("identical streams do not share an arena")
	}
	c := s.Intern(&Strided{Base: 1 << 21, StrideBytes: 128, Count: 10, InstrsPerRef: 1})
	sc := c.NextSlice()
	if len(sc) > 0 && len(sa) > 0 && &sc[0] == &sa[0] {
		t.Fatalf("distinct streams share an arena")
	}
	st := s.Stats()
	if st.Interned != 3 || st.Unique != 2 {
		t.Fatalf("stats = %+v, want Interned 3, Unique 2", st)
	}
	wantBytes := (a.Len() + c.Len()) * refBytes
	if st.ArenaBytes != wantBytes {
		t.Fatalf("ArenaBytes = %d, want %d", st.ArenaBytes, wantBytes)
	}
}

// TestInternTailDistinguishes pins that two streams with equal references but
// different trailing instruction counts never share an entry.
func TestInternTailDistinguishes(t *testing.T) {
	s := NewTraceStore()
	rs := []Ref{{Addr: 64, Instrs: 1}, {Addr: 128, Write: true, Instrs: 2}}
	a := s.InternRefs(rs, 5)
	b := s.InternRefs(rs, 6)
	if a.Instrs() == b.Instrs() {
		t.Fatalf("different tails produced equal totals")
	}
	if st := s.Stats(); st.Unique != 2 {
		t.Fatalf("Unique = %d, want 2", st.Unique)
	}
}

// TestInternRefsDoesNotRetainInput pins that InternRefs copies: mutating the
// caller's slice afterwards must not corrupt the arena.
func TestInternRefsDoesNotRetainInput(t *testing.T) {
	s := NewTraceStore()
	rs := []Ref{{Addr: 64, Instrs: 1}, {Addr: 128, Instrs: 2}}
	a := s.InternRefs(rs, 0)
	rs[0].Addr = 0xDEAD
	if got := a.NextSlice(); got[0].Addr != 64 {
		t.Fatalf("arena aliases the caller's slice: %+v", got[0])
	}
}

// TestFingerprintQuickCheck generates random short streams and checks the
// content-addressing law both ways on every pair: equal drains imply equal
// fingerprints (by construction), and — with the store's verification — a
// shared arena implies equal drains.  Near-identical streams (prefixes, one
// flipped write bit, shifted instruction counts) are included deliberately.
func TestFingerprintQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	streams := make([][]Ref, 0, 64)
	tails := make([]int64, 0, 64)
	for i := 0; i < 64; i++ {
		n := rng.Intn(6)
		rs := make([]Ref, n)
		for j := range rs {
			rs[j] = Ref{
				Addr:   uint64(rng.Intn(4)) * 64,
				Write:  rng.Intn(2) == 0,
				Instrs: int64(rng.Intn(3)),
			}
		}
		streams = append(streams, rs)
		tails = append(tails, int64(rng.Intn(2)))
	}
	s := NewTraceStore()
	interned := make([]*Recorded, len(streams))
	for i := range streams {
		interned[i] = s.InternRefs(streams[i], tails[i])
	}
	for i := range streams {
		for j := range streams {
			same := tails[i] == tails[j] && sameRefs(streams[i], streams[j])
			fpEq := FingerprintRefs(streams[i], tails[i]) == FingerprintRefs(streams[j], tails[j])
			if same && !fpEq {
				t.Fatalf("identical streams %d and %d fingerprint differently", i, j)
			}
			shared := len(streams[i]) > 0 && len(streams[j]) > 0 &&
				&interned[i].refs[0] == &interned[j].refs[0]
			if shared && !same {
				t.Fatalf("distinct streams %d and %d share an arena", i, j)
			}
			if same && !shared && len(streams[i]) > 0 {
				t.Fatalf("identical streams %d and %d do not share an arena", i, j)
			}
		}
	}
}

// TestTraceStoreConcurrentIntern hammers one store from many goroutines
// (run under -race in CI) and checks the ledger adds up.
func TestTraceStoreConcurrentIntern(t *testing.T) {
	s := NewTraceStore()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// 10 distinct contents, interned over and over.
				r := s.Intern(NewScan(1<<20, int64(64*(1+i%10)), 64, 1))
				if r.Len() == 0 {
					t.Errorf("worker %d: empty recording", w)
					return
				}
				drainAll(r)
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Interned != workers*perWorker || st.Unique != 10 {
		t.Fatalf("stats = %+v, want Interned %d, Unique 10", st, workers*perWorker)
	}
}

func drainAll(g Gen) {
	buf := make([]Ref, BlockSize)
	for g.NextBlock(buf) > 0 {
	}
}

package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/faultinject"
)

// TestDiskCacheCorruptEntryLogsAndOverwrites pins the corruption-tolerance
// contract: a truncated or garbage entry file reads as a logged miss, the
// job recomputes, and the recomputation's Put overwrites the bad file so the
// next process hits again.
func TestDiskCacheCorruptEntryLogsAndOverwrites(t *testing.T) {
	dir := t.TempDir()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	jobs = jobs[:1]
	key := jobs[0].Key

	seed, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	want, err := NewEngine(EngineOptions{Workers: 1, Cache: seed}).Run(jobs)
	if err != nil {
		t.Fatalf("seed run: %v", err)
	}

	for name, corrupt := range map[string][]byte{
		"truncated": []byte(`{"key":{"workload":"merges`),
		"garbage":   []byte("\x00\xff\x17 not json at all"),
	} {
		t.Run(name, func(t *testing.T) {
			path := seed.path(key)
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewDiskCache(dir)
			if err != nil {
				t.Fatalf("NewDiskCache: %v", err)
			}
			var mu sync.Mutex
			var logs []string
			c.SetLogf(func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			})
			if _, ok := c.Get(key); ok {
				t.Fatalf("corrupt entry must miss")
			}
			if len(logs) != 1 || !strings.Contains(logs[0], "corrupt entry") {
				t.Fatalf("corrupt entry must be logged once, got %q", logs)
			}

			// The recomputation overwrites the corrupt file in place.
			got, err := NewEngine(EngineOptions{Workers: 1, Cache: c}).Run(jobs)
			if err != nil {
				t.Fatalf("recompute through corrupt cache: %v", err)
			}
			if got[0].Cached {
				t.Fatalf("corrupt entry must force a recomputation")
			}
			if got[0].Sim.Cycles != want[0].Sim.Cycles {
				t.Fatalf("recomputed cycles = %d, want %d", got[0].Sim.Cycles, want[0].Sim.Cycles)
			}
			fresh, err := NewDiskCache(dir)
			if err != nil {
				t.Fatalf("NewDiskCache: %v", err)
			}
			if _, ok := fresh.Get(key); !ok {
				t.Fatalf("recomputation must overwrite the corrupt entry")
			}
		})
	}
}

// TestDiskCacheCollectsCrashedPutTemp rehearses a writer killed between
// writing its temp file and renaming it into place: the entry stays absent
// (a miss, never a partial file), and a reopened cache whose GC horizon has
// passed sweeps the orphaned temp file.
func TestDiskCacheCollectsCrashedPutTemp(t *testing.T) {
	dir := t.TempDir()
	k := Key{Workload: "w", Params: "p", Scheduler: "pdf", Config: "c"}

	crashFS := faultinject.NewFaulty(faultinject.OS(), 1)
	crashFS.CrashAt(faultinject.OpRename, 1)
	victim, err := NewDiskCacheWith(dir, DiskCacheOptions{FS: crashFS})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Put(Entry{Key: k, Sim: &cmpsim.Result{Cycles: 42}}); err == nil {
		t.Fatal("put should crash")
	}
	if !crashFS.Crashed() {
		t.Fatal("filesystem not crashed")
	}

	// A default horizon leaves the fresh temp file alone.
	survivor, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if temps := survivor.GCStats(); temps != 0 {
		t.Fatalf("default gc collected %d fresh temp files, want 0", temps)
	}
	if _, ok := survivor.Get(k); ok {
		t.Fatal("an unrenamed entry must read as a miss")
	}

	time.Sleep(10 * time.Millisecond)
	reopened, err := NewDiskCacheWith(dir, DiskCacheOptions{TempMaxAge: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if temps := reopened.GCStats(); temps != 1 {
		t.Fatalf("gc collected %d temp files, want 1", temps)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("debris survived gc: %v", ents)
	}
}

// TestEnginesSharingOneCacheDirAgree pins the shared-directory contract:
// two engines, each with its own DiskCache over one directory (two
// processes, in effect), running overlapping grids concurrently produce
// exactly the rows of an uncached run, and leave one readable entry per
// key.  Nothing coordinates them, so how many jobs each simulates is left
// open.
func TestEnginesSharingOneCacheDirAgree(t *testing.T) {
	dir := t.TempDir()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	want, err := NewEngine(EngineOptions{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatalf("uncached run: %v", err)
	}

	var wg sync.WaitGroup
	got := make([][]Result, 2)
	errs := make([]error, 2)
	for i := range got {
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *DiskCache) {
			defer wg.Done()
			got[i], errs[i] = NewEngine(EngineOptions{Workers: 2, Cache: c}).Run(jobs)
		}(i, c)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(stripVariance(got[i]), stripVariance(want)) {
			t.Fatalf("engine %d over the shared directory disagrees with the uncached run", i)
		}
	}

	fresh, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, ok := fresh.Get(j.Key); !ok {
			t.Errorf("no readable entry for %s", j.Key)
		}
	}
}

// TestDiskCacheWrongKeyEntryLogsAndMisses covers the other corruption shape:
// a parseable entry stored under an address whose key it does not match.
func TestDiskCacheWrongKeyEntryLogsAndMisses(t *testing.T) {
	dir := t.TempDir()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	jobs = jobs[:2]

	seed, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	if _, err := NewEngine(EngineOptions{Workers: 1, Cache: seed}).Run(jobs); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	// Swap job 1's entry file under job 0's address.
	data, err := os.ReadFile(seed.path(jobs[1].Key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seed.path(jobs[0].Key), data, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	var logs []string
	c.SetLogf(func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) })
	if _, ok := c.Get(jobs[0].Key); ok {
		t.Fatalf("mismatched entry must miss")
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "holds key") {
		t.Fatalf("mismatched entry must be logged once, got %q", logs)
	}
}

// TestDiskCacheNullResultLogsAndRecomputes covers an entry that parses and
// carries the right key but no result ("sim":null): it must miss and be
// logged, the job must recompute, and the recomputation's Put must replace
// the file with a whole entry.
func TestDiskCacheNullResultLogsAndRecomputes(t *testing.T) {
	dir := t.TempDir()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	jobs = jobs[:1]
	key := jobs[0].Key
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	data, err := json.Marshal(Entry{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"sim":null`) {
		t.Fatalf("fixture %s does not carry a null result", data)
	}
	if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	c.SetLogf(func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) })
	if e, ok := c.Get(key); ok {
		t.Fatalf("entry without a result served as a hit: %+v", e)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "no result") {
		t.Fatalf("entry without a result must be logged once, got %q", logs)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses; want 0, 1", hits, misses)
	}

	got, err := NewEngine(EngineOptions{Workers: 1, Cache: c}).Run(jobs)
	if err != nil {
		t.Fatalf("recompute: %v", err)
	}
	if got[0].Cached || got[0].Sim == nil {
		t.Fatalf("job was not recomputed: cached=%t sim=%v", got[0].Cached, got[0].Sim)
	}
	fresh, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	if e, ok := fresh.Get(key); !ok || e.Sim == nil || e.Sim.Cycles != got[0].Sim.Cycles {
		t.Fatalf("recomputation did not overwrite the entry: ok=%t entry=%+v", ok, e)
	}
}

// TestRunContextCancelled asserts the cancellation contract at both worker
// shapes: an already-cancelled context runs nothing; a context cancelled
// after the first completed job stops feeding, keeps the completed results,
// and reports context.Canceled.
func TestRunContextCancelled(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d/pre-cancelled", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			results, err := NewEngine(EngineOptions{Workers: workers}).RunContext(ctx, jobs)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			for _, r := range results {
				if r.Sim != nil {
					t.Fatalf("pre-cancelled run must not simulate, got %s", r.Key)
				}
			}
		})
		t.Run(fmt.Sprintf("workers=%d/mid-cancel", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			streamed := 0
			results, err := NewEngine(EngineOptions{Workers: workers}).RunStreamContext(ctx, jobs,
				func(i int, r Result) {
					mu.Lock()
					streamed++
					mu.Unlock()
					cancel()
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			done := 0
			for _, r := range results {
				if r.Sim != nil {
					done++
				}
			}
			if done == 0 || done == len(jobs) {
				t.Fatalf("mid-cancel completed %d of %d jobs, want a strict partial run", done, len(jobs))
			}
			if done != streamed {
				t.Fatalf("streamed %d results but %d are filled in", streamed, done)
			}
		})
	}
}

package sweep

import (
	"testing"

	"cmpsched/internal/config"
	"cmpsched/internal/dag"
	"cmpsched/internal/refs"
)

// trivialJob is a job whose simulation is as small as the engine can run:
// one task scanning 4 KB, so the engine's own per-job work — template
// lookup, options, scheduler construction, result handling — dominates.
func trivialJob(b *testing.B) Job {
	b.Helper()
	cfg, err := config.Default(2)
	if err != nil {
		b.Fatal(err)
	}
	return NewJob("trivial", "scan=4KB", "pdf", cfg.Scaled(config.DefaultScale), func() (*dag.DAG, error) {
		d := dag.New("trivial")
		d.AddTask("scan", refs.NewScan(0, 4<<10, 64, 4))
		return d, nil
	})
}

// BenchmarkEngineJob times the sweep engine per job on a trivial DAG: one
// serial Run over b.N jobs of a single template, so every job after the
// first is a memo hit and no result cache is consulted.  allocs/op is the
// engine's and the simulator's per-job allocation count.
func BenchmarkEngineJob(b *testing.B) {
	j := trivialJob(b)
	jobs := make([]Job, b.N)
	for i := range jobs {
		jobs[i] = j
	}
	e := NewEngine(EngineOptions{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(jobs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDiskCache times DiskCache I/O on a real result entry.  put
// rewrites one entry (encode, temp file, rename); get reads and decodes it
// from disk, with the in-memory layer cleared before each Get so no
// iteration is served from memory.
func BenchmarkDiskCache(b *testing.B) {
	j := trivialJob(b)
	res, err := NewEngine(EngineOptions{Workers: 1}).Run([]Job{j})
	if err != nil {
		b.Fatal(err)
	}
	entry := Entry{Key: j.Key, Sim: res[0].Sim}
	c, err := NewDiskCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Put(entry); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		if err := c.Put(entry); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.mem = NewMemoryCache()
			if _, ok := c.Get(entry.Key); !ok {
				b.Fatal("entry missing")
			}
		}
	})
}

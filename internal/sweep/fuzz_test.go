package sweep

import (
	"os"
	"testing"
)

// FuzzDiskCacheGet writes arbitrary bytes as one key's entry file and reads
// it back through a fresh DiskCache.  Get must never panic, and anything it
// serves as a hit must carry the key it was asked for and a result.  The
// committed seed corpus under testdata/fuzz (a whole entry, a null result,
// a foreign key, truncated and non-JSON files) replays in plain `go test`;
// `make fuzz-diskcache` mutates beyond it.
func FuzzDiskCacheGet(f *testing.F) {
	k := Key{Workload: "mergesort", Params: "p", Scheduler: "pdf", Config: "c", Options: "o"}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := c.Get(k)
		if ok && (e.Key != k || e.Sim == nil) {
			t.Fatalf("Get served %q as a hit: key %+v, sim %v", data, e.Key, e.Sim)
		}
	})
}

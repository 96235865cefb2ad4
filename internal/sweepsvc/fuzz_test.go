package sweepsvc

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest drives arbitrary bytes through the front door of a
// submission — DecodeRequest, Validate, Jobs — stopping before any Build.
// Malformed input must come back as an error, never a panic, and a request
// that validates must expand to well-formed jobs.  The committed seed
// corpus under testdata/fuzz (valid grids and point lists, and each
// rejection shape) replays in plain `go test`; `make fuzz-request` mutates
// beyond it.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		jobs, err := req.Jobs()
		if err != nil {
			return
		}
		if len(req.Points) > 0 && len(jobs) != len(req.Points) {
			t.Fatalf("%d points expanded to %d jobs", len(req.Points), len(jobs))
		}
		for i, j := range jobs {
			if j.Build == nil || j.Key.Workload == "" || j.Key.Scheduler == "" || j.Config.Cores <= 0 {
				t.Fatalf("job %d is malformed: %+v", i, j.Key)
			}
		}
	})
}

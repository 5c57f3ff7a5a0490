package store

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"regvirt/internal/integrity"
	"regvirt/internal/jobs"
)

// TestScrubRepairLadder drives one scrub pass per case over a single
// planted file and checks the tallies and what is left on disk: healed
// files must be byte-identical to what the store itself writes.
func TestScrubRepairLadder(t *testing.T) {
	job := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	id := job.Key()
	res := fakeResult(id)
	spec, _ := json.Marshal(job)
	good := integrity.Seal(res.JSON(), spec) // what Store.Done writes
	// flip corrupts one payload bit, clear of the header and the spec.
	flip := func(b []byte) []byte {
		b = bytes.Clone(b)
		b[bytes.IndexByte(b, '\n')+2] ^= 0x08
		return b
	}

	cases := []struct {
		name       string
		checkpoint bool   // plant under checkpoints/ instead of results/
		data       []byte // planted before the pass
		want       integrity.Report
		wantData   []byte // on disk after the pass; nil = removed
		wantResims int
	}{
		{"clean result is skipped", false, good,
			integrity.Report{Scanned: 1}, good, 0},
		{"corrupt result re-simulated from its spec", false, flip(good),
			integrity.Report{Scanned: 1, Corrupt: 1, Repaired: 1}, good, 1},
		// An unsealed file carries no spec to re-simulate from.
		{"unsealed result counts as corrupt", false, res.JSON(),
			integrity.Report{Scanned: 1, Corrupt: 1}, nil, 0},
		{"no peer and no spec: removed, not repaired", false, flip(integrity.Seal(res.JSON(), nil)),
			integrity.Report{Scanned: 1, Corrupt: 1}, nil, 0},
		{"corrupt checkpoint is dropped", true, flip(integrity.Seal([]byte("ckpt"), nil)),
			integrity.Report{Scanned: 1, Corrupt: 1, Repaired: 1}, nil, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := openT(t, t.TempDir())
			defer s.Close()
			path := s.resultPath(id)
			if c.checkpoint {
				path = s.checkpointPath(id)
			}
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			resims := 0
			rep := s.Scrub(ScrubOptions{
				Resim: func(j jobs.Job) (*jobs.Result, error) {
					resims++
					if j.Key() != id {
						t.Errorf("re-simulated job %s, want %s", j.Key(), id)
					}
					return res, nil
				},
			})
			if rep != c.want {
				t.Errorf("report = %+v, want %+v", rep, c.want)
			}
			if resims != c.wantResims {
				t.Errorf("re-simulations = %d, want %d", resims, c.wantResims)
			}
			got, err := os.ReadFile(path)
			switch {
			case c.wantData == nil && !os.IsNotExist(err):
				t.Errorf("file still present (err %v), want removed", err)
			case c.wantData != nil && !bytes.Equal(got, c.wantData):
				t.Errorf("file after scrub = %q, want %q", got, c.wantData)
			}
		})
	}
}

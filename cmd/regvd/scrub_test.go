package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"regvirt/internal/faultinject"
	"regvirt/internal/integrity"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
)

// TestPeerRungHeals: the scrubber's peer rung end to end. The fetcher
// reads a peer's GET /v1/jobs/{id} answer through the jobs client, and
// the scrubber turns that result back into exactly the envelope the
// store wrote before one payload bit rotted.
func TestPeerRungHeals(t *testing.T) {
	peer := jobs.NewPool(1)
	defer peer.Close()
	srv := httptest.NewServer(jobs.NewServer(peer).Handler())
	defer srv.Close()
	job := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	res, err := peer.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id := job.Key()
	if err := st.Accept(id, job, false); err != nil {
		t.Fatal(err)
	}
	if err := st.Done(id, res); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results", id+".json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(path, uint64(bytes.IndexByte(want, '\n')+2)*8+3); err != nil {
		t.Fatal(err)
	}

	rep := st.Scrub(store.ScrubOptions{Fetch: peerResultFetcher(srv.URL, nil)})
	if rep != (integrity.Report{Scanned: 1, Corrupt: 1, Repaired: 1}) {
		t.Fatalf("scrub report %+v, want one corrupt file repaired", rep)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatal("healed file differs from the envelope the store wrote")
	}
}

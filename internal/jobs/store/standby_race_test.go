package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestStandbyFencePersistsAcrossReopen: the fence sidecar survives a
// standby restart, only ratchets forward, and shows up in Status —
// otherwise a restarted standby would re-admit a deposed primary.
func TestStandbyFencePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.FenceEpoch("a"); got != 0 {
		t.Errorf("fresh fence = %d, want 0", got)
	}
	if err := ss.Fence("a", 7); err != nil {
		t.Fatal(err)
	}
	if err := ss.Fence("a", 3); err != nil { // lowering is a silent no-op
		t.Fatal(err)
	}
	if got := ss.FenceEpoch("a"); got != 7 {
		t.Errorf("fence = %d, want 7 (ratchet must not lower)", got)
	}
	found := false
	for _, st := range ss.Status() {
		if st.Shard == "a" {
			found = true
			if st.Fence != 7 {
				t.Errorf("Status fence = %d, want 7", st.Fence)
			}
		}
	}
	if !found {
		t.Error("fenced shard missing from Status")
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	ss2, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if got := ss2.FenceEpoch("a"); got != 7 {
		t.Errorf("fence after reopen = %d, want 7", got)
	}
}

// TestStandbyResyncRacesApplyAndRecover hammers the standby's three
// mutating surfaces — frame application, snapshot installation (the
// gap-resync path) and journal recovery — concurrently under -race.
// Individual calls may legitimately fail with ErrGap (a snapshot reset
// continuity under the applier's feet); what must hold is that no call
// races another, the files never corrupt, and a final Recover returns
// a consistent job set.
func TestStandbyResyncRacesApplyAndRecover(t *testing.T) {
	ss, err := OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	const iters = 150
	journalOf := func(n int) []byte {
		var journal []byte
		for i := 0; i < n; i++ {
			journal = append(journal, frameFor(t, uint64(i+1), acceptRec(fmt.Sprintf("job-%02d", i)))...)
		}
		return journal
	}

	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // frame applier: extends whatever continuity currently holds
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_, lastSeq := ss.State("a")
			f := frameFor(t, lastSeq+1, acceptRec(fmt.Sprintf("app-%03d", i)))
			ss.ApplyFrames("a", 1, f) // ErrGap expected when a snapshot won the race
		}
	}()
	go func() { // resyncer: snapshots replace the copy wholesale
		defer wg.Done()
		for i := 0; i < iters; i++ {
			n := 1 + i%5
			if _, err := ss.InstallSnapshot("a", 1, journalOf(n)); err != nil {
				t.Errorf("InstallSnapshot: %v", err)
				return
			}
		}
	}()
	go func() { // recoverer: full journal replay
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := ss.Recover("a"); err != nil {
				t.Errorf("Recover: %v", err)
				return
			}
		}
	}()
	go func() { // observers: status, state, fences
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ss.State("a")
			ss.Status()
			ss.FenceEpoch("a")
		}
	}()
	wg.Wait()

	recovered, err := ss.Recover("a")
	if err != nil {
		t.Fatalf("final Recover: %v", err)
	}
	seen := map[string]bool{}
	for _, rj := range recovered {
		if seen[rj.ID] {
			t.Errorf("job %s recovered twice", rj.ID)
		}
		seen[rj.ID] = true
		if rj.State != "pending" {
			t.Errorf("job %s state %q, want pending", rj.ID, rj.State)
		}
	}
	// The last full snapshot's jobs are all there: whatever the final
	// interleaving, a snapshot of n jobs plus contiguous appends can
	// only grow the set.
	if len(recovered) == 0 {
		t.Error("final Recover returned no jobs")
	}
}

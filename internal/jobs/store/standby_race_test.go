package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestStandbyFencePersistsAcrossReopen: the fence rule runs inside the
// calls that write the copy. A batch and a snapshot stamped below the
// fence apply nothing and return ErrFenced; a higher epoch raises the
// fence, which shows in Status and survives a reopen, and applies in the
// same call; Recover(shard, epoch) leaves the copy fenced at epoch, and
// a lower epoch never lowers the fence.
func TestStandbyFencePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.FenceEpoch("a"); got != 0 {
		t.Errorf("fresh fence = %d, want 0", got)
	}
	if n, err := ss.ApplyFrames("a", 7, 1, frameFor(t, 1, acceptRec("aaa1"))); err != nil || n != 1 {
		t.Fatalf("epoch-7 batch: applied %d, err %v; want 1 applied", n, err)
	}
	if got := ss.FenceEpoch("a"); got != 7 {
		t.Errorf("fence after an epoch-7 batch = %d, want 7", got)
	}
	if n, err := ss.ApplyFrames("a", 6, 1, frameFor(t, 2, acceptRec("bbb2"))); !errors.Is(err, ErrFenced) || n != 0 {
		t.Errorf("epoch-6 batch: applied %d, err %v; want ErrFenced and nothing applied", n, err)
	}
	snap := batchOf(frameFor(t, 1, acceptRec("ccc3")), frameFor(t, 2, acceptRec("ddd4")))
	if n, err := ss.InstallSnapshot("a", 6, 2, snap); !errors.Is(err, ErrFenced) || n != 0 {
		t.Errorf("epoch-6 snapshot: installed %d, err %v; want ErrFenced and nothing installed", n, err)
	}
	if gen, last := ss.State("a"); gen != 1 || last != 1 {
		t.Errorf("copy at (%d, %d) after stale messages, want (1, 1)", gen, last)
	}
	if _, err := ss.Recover("a", 3); err != nil { // lowering is a silent no-op
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
	if got := ss2.FenceEpoch("a"); got != 7 {
		t.Errorf("fence after reopen = %d, want 7", got)
	}
	if n, err := ss2.InstallSnapshot("a", 8, 2, snap); err != nil || n != 2 {
		t.Fatalf("epoch-8 snapshot: installed %d, err %v; want 2 installed", n, err)
	}
	// An adoption at epoch 9 fences and replays in one call; from then
	// on the epoch-8 owner's batches are refused.
	recovered, err := ss2.Recover("a", 9)
	if err != nil || len(recovered) != 2 {
		t.Fatalf("Recover at epoch 9: %d jobs, err %v; want 2", len(recovered), err)
	}
	if n, err := ss2.ApplyFrames("a", 8, 2, frameFor(t, 3, acceptRec("eee5"))); !errors.Is(err, ErrFenced) || n != 0 {
		t.Errorf("epoch-8 batch after adoption: applied %d, err %v; want ErrFenced", n, err)
	}
	if err := ss2.Close(); err != nil {
		t.Fatal(err)
	}
	ss3, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss3.Close()
	if got := ss3.FenceEpoch("a"); got != 9 {
		t.Errorf("fence after adoption and reopen = %d, want 9", got)
	}
}

// TestStandbyFenceRacesApply: an adoption's Recover at epoch 2 races a
// deposed primary's stream of epoch-1 batches. However they interleave,
// every frame the copy holds once Recover has returned is one Recover
// replayed: a batch either lands before the fence, and is replayed, or
// is refused with ErrFenced, as the stream's last batch, sent after
// Recover returned, must be.
func TestStandbyFenceRacesApply(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		ss, err := OpenStandby(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.ApplyFrames("a", 1, 1, frameFor(t, 1, acceptRec("job-0001"))); err != nil {
			t.Fatal(err)
		}
		adopted := make(chan struct{})
		applied := make(chan error, 1)
		go func() {
			for seq := uint64(2); ; seq++ {
				last := false
				select {
				case <-adopted:
					last = true
				default:
				}
				rec := acceptRec(fmt.Sprintf("job-%04d", seq))
				rec.Seq = seq
				frame, err := frameRecord(rec)
				if err == nil {
					_, err = ss.ApplyFrames("a", 1, 1, frame)
				}
				if err != nil || last {
					applied <- err
					return
				}
			}
		}()
		recovered, err := ss.Recover("a", 2)
		close(adopted)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-applied; !errors.Is(err, ErrFenced) {
			t.Fatalf("trial %d: the epoch-1 stream ended with %v, want ErrFenced", trial, err)
		}
		if _, last := ss.State("a"); last != uint64(len(recovered)) {
			t.Fatalf("trial %d: the copy holds %d frames after an adoption that replayed %d", trial, last, len(recovered))
		}
		ss.Close()
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
			ss.ApplyFrames("a", 0, 1, f) // ErrGap expected when a snapshot won the race
		}
	}()
	go func() { // resyncer: snapshots replace the copy wholesale
		defer wg.Done()
		for i := 0; i < iters; i++ {
			n := 1 + i%5
			if _, err := ss.InstallSnapshot("a", 0, 1, journalOf(n)); err != nil {
				t.Errorf("InstallSnapshot: %v", err)
				return
			}
		}
	}()
	go func() { // recoverer: full journal replay
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := ss.Recover("a", 0); err != nil {
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

	recovered, err := ss.Recover("a", 0)
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

//go:build !race

package store

import (
	"testing"

	"regvirt/internal/jobs"
)

// TestFrameHeadAllocatesNothing: a standby reads a shipped frame's
// sequence number and operation without allocating, job spec and all.
// The race detector allocates on its own, hence the build tag.
func TestFrameHeadAllocatesNothing(t *testing.T) {
	job := jobs.Job{Kernel: ".kernel k\n.reg 2\n    exit\n", Mode: "hwonly", GridCTAs: 1, ThreadsPerCTA: 32, ConcCTAs: 1, Tenant: "gold"}
	for _, rec := range []Record{
		{Seq: 7, Op: OpAccept, ID: job.Key(), Async: true, Job: &job},
		{Seq: 8, Op: OpDone, ID: job.Key()},
		{Seq: 9, Op: OpFailed, ID: job.Key(), Err: "sim: \"deadlock\" at cycle 9"},
	} {
		frame, err := frameRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if seq, op, n, ok := nextFrameHead(frame); !ok || seq != rec.Seq || op != rec.Op || n != len(frame) {
				t.Fatalf("nextFrameHead = %d, %q, %d, %v", seq, op, n, ok)
			}
		})
		if allocs != 0 {
			t.Errorf("nextFrameHead of a %s frame: %v allocations, want 0", rec.Op, allocs)
		}
	}
}

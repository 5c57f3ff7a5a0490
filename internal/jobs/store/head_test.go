package store

import (
	"bytes"
	"math/rand"
	"testing"

	"regvirt/internal/jobs"
)

// headSeeds are frame payloads for FuzzFrameHead: records as
// frameRecord writes them (every job field set, escapes in the strings)
// and hand-made near misses that only the full decoder can judge.
func headSeeds(t testing.TB) [][]byte {
	full := jobs.Job{
		Workload: "VectorAdd", Kernel: "mov r1, r2\n\t\"x\" é", GridCTAs: 4, ThreadsPerCTA: 128,
		ConcCTAs: 2, Mode: "regcache", PhysRegs: 512, PowerGating: true, WakeupLatency: 3,
		FlagCacheEntries: -1, TableBytes: 64, RFCacheEntries: 8, RFCacheWriteThrough: true,
		SpillRegs: 16, WholeGPU: true, GPUParallel: 2, Profile: true, TimeoutMS: 1 << 40,
		Async: true, Tenant: "gold", Priority: -100,
	}
	var seeds [][]byte
	for _, rec := range []Record{
		{Seq: 1, Op: OpAccept, ID: "aaa1", Async: true, Job: &full},
		{Seq: 2, Op: OpAccept, ID: "bbb2", Job: &jobs.Job{}},
		{Seq: 3, Op: OpDone, ID: "aaa1"},
		{Seq: 18446744073709551615, Op: OpFailed, ID: "bbb2", Err: "sim: deadlock \\ at cycle 99"},
		{Seq: 5, Op: OpDone, ID: "a/../b"},
		{Seq: 6, Op: "explode", ID: "aaa1"},
		{Seq: 7, Op: OpAccept, ID: "ccc3"},
	} {
		frame, err := frameRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, frame[frameHeaderSize:])
	}
	for _, p := range []string{
		`{"seq":1,"op":"accept","id":"aaa1","job":{"workload":"x","workload":"y"}}`,
		`{"seq":1,"op":"accept","id":"aaa1","job":{"physregs":9223372036854775808}}`,
		`{"seq":1,"op":"accept","id":"aaa1","job":{"physregs":-9223372036854775808}}`,
		`{"seq":1,"op":"accept","id":"aaa1","job":{"physregs":1.5}}`,
		`{"seq":1,"op":"accept","id":"aaa1","job":{"physregs":"512"}}`,
		`{"seq":1,"op":"accept","id":"aaa1","job":{"PhysRegs":512}}`,
		`{"seq":1,"op":"accept","id":"aaa1","job":{"nope":1}}`,
		`{"seq":1,"op":"accept","id":"aaa1","job":null}`,
		`{"seq":1,"op":"done","id":"aaa1","job":null}`,
		`{"seq":01,"op":"done","id":"aaa1"}`,
		`{"seq":1,"op":"done","id":"aaa"}`,
		`{"seq":1,"op":"done","id":"aa` + "\xff" + `"}`,
		`{"seq":1,"op":"done","id":"aaa1","err":"\ud800"}`,
		`{"seq":1,"op":"done","id":"aaa1","async":false}`,
		`{"id":"aaa1","op":"done","seq":1}`,
		`{"seq":1,"op":"done","id":"aaa1"} `,
		`{"seq":1,"op":"done","id":"aaa1"}}`,
		`{"seq":18446744073709551616,"op":"done","id":"aaa1"}`,
	} {
		seeds = append(seeds, []byte(p))
	}
	return seeds
}

// checkHeadAgrees holds nextFrameHead to nextFrame on data, both as
// raw bytes and as the payload of a frame whose checksum matches.
func checkHeadAgrees(t *testing.T, data []byte) {
	t.Helper()
	inputs := [][]byte{data}
	if len(data) > 0 && len(data) <= maxRecordSize {
		inputs = append(inputs, frameBytes(data))
	}
	for _, in := range inputs {
		rec, n, ok := nextFrame(in)
		seq, op, hn, hok := nextFrameHead(in)
		if hok != ok || hn != n || seq != rec.Seq || op != rec.Op {
			t.Fatalf("on %q: nextFrameHead = (%d, %q, %d, %v), nextFrame = (%d, %q, %d, %v)",
				in, seq, op, hn, hok, rec.Seq, rec.Op, n, ok)
		}
	}
}

// FuzzFrameHead holds the standby's batch reader to the replay decoder
// on arbitrary bytes: nextFrameHead takes a frame exactly when
// nextFrame does, with the same length, sequence number and operation,
// so every frame a standby keeps replays on adoption.
func FuzzFrameHead(f *testing.F) {
	for _, p := range headSeeds(f) {
		f.Add(p)
	}
	f.Fuzz(checkHeadAgrees)
}

// TestFrameHeadAgrees runs the two readers over the seeds of
// FuzzJournalReplay and FuzzFrameHead and over seeded random
// mutations of them: bytes flipped, dropped and repeated.
func TestFrameHeadAgrees(t *testing.T) {
	j := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	var journal bytes.Buffer
	for _, rec := range []Record{
		{Seq: 1, Op: OpAccept, ID: "aaa1", Async: true, Job: &j},
		{Seq: 2, Op: OpDone, ID: "aaa1"},
	} {
		frame, err := frameRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(frame)
	}
	seeds := append(headSeeds(t), journal.Bytes(), nil)
	rng := rand.New(rand.NewSource(1))
	for _, seed := range seeds {
		checkHeadAgrees(t, seed)
		for i := 0; i < 2000 && len(seed) > 0; i++ {
			m := append([]byte(nil), seed...)
			for k := rng.Intn(3) + 1; k > 0; k-- {
				at := rng.Intn(len(m))
				switch rng.Intn(3) {
				case 0:
					m[at] = byte(rng.Intn(256))
				case 1:
					m = append(m[:at], m[at+1:]...)
				default:
					m = append(m[:at], append([]byte{m[at]}, m[at:]...)...)
				}
				if len(m) == 0 {
					break
				}
			}
			checkHeadAgrees(t, m)
		}
	}
}

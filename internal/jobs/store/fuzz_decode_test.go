package store

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"regvirt/internal/integrity"
	"regvirt/internal/jobs"
)

// unsealed reports whether data lacks the envelope magic; such input
// must always be a miss.
func unsealed(data []byte) bool { return !bytes.HasPrefix(data, []byte("RVI1 ")) }

// FuzzResultDecode holds the result read path against arbitrary file
// bytes: decodeResult never panics, and it answers exactly when an
// independent envelope-open + JSON decode would — corrupt input
// (unsealed input included) is a miss, never a wrong answer. It also
// holds the heal's trust boundary: salvageJob returns a job only for
// input that fails to open and only a job whose key is the file's ID,
// so a read can never re-run a job its ID does not name.
func FuzzResultDecode(f *testing.F) {
	job := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	id := job.Key()
	spec, _ := json.Marshal(job)
	payload := fakeResult("fz01").JSON()

	sealed := integrity.Seal(payload, spec)
	f.Add(sealed)
	f.Add(payload) // unsealed raw JSON: a miss
	f.Add(sealed[:len(sealed)-5])
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(integrity.Seal(nil, nil))
	f.Add([]byte("RVI1 00000000 9999999999 0\n"))
	f.Add([]byte{})
	// A payload bit flipped with the spec intact salvages; with another
	// job's spec it must not.
	flipPayload := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		b[bytes.IndexByte(b, '\n')+2] ^= 0x08
		return b
	}
	f.Add(flipPayload(sealed))
	other, _ := json.Marshal(jobs.Job{Workload: "MUM"})
	f.Add(flipPayload(integrity.Seal(payload, other)))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, ok := decodeResult(data)

		var want jobs.Result
		env, err := integrity.Open(data)
		wantOK := err == nil && json.Unmarshal(env.Payload, &want) == nil
		if ok != wantOK {
			t.Fatalf("decodeResult ok=%v, independent decode says %v", ok, wantOK)
		}
		if ok && unsealed(data) {
			t.Fatalf("decodeResult accepted unsealed input")
		}
		if ok && !reflect.DeepEqual(res, &want) {
			t.Fatalf("decodeResult returned %+v, independent decode %+v", res, &want)
		}

		// Salvage is the heal's lenient parse: it must never panic and
		// its sections must tile the body exactly.
		if p, sp, sok := integrity.Salvage(data); sok {
			if len(p)+len(sp) > len(data) {
				t.Fatalf("salvaged sections (%d+%d) exceed input (%d)", len(p), len(sp), len(data))
			}
		}
		if sj, sok := salvageJob(id, data); sok {
			if err == nil {
				t.Fatalf("salvageJob salvaged input that opens cleanly")
			}
			if sj.Key() != id {
				t.Fatalf("salvageJob returned job %s for ID %s", sj.Key(), id)
			}
		}
	})
}

// FuzzCheckpointDecode is the same contract for checkpoint blobs: a
// corrupt envelope is a miss (the job restarts from cycle 0), an
// intact one returns the exact sealed payload.
func FuzzCheckpointDecode(f *testing.F) {
	blob := []byte("gob-encoded checkpoint bytes \x00\x01\x02")

	sealed := integrity.Seal(blob, nil)
	f.Add(sealed)
	f.Add(blob) // unsealed raw blob: a miss
	f.Add(sealed[:len(sealed)-1])
	flipped := append([]byte(nil), sealed...)
	flipped[0] ^= 0x01 // breaks the magic: a miss
	f.Add(flipped)
	f.Add(integrity.Seal(nil, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := decodeCheckpoint(data)

		env, err := integrity.Open(data)
		wantOK := len(data) > 0 && err == nil && len(env.Payload) > 0
		if ok != wantOK {
			t.Fatalf("decodeCheckpoint ok=%v, independent decode says %v", ok, wantOK)
		}
		if ok && unsealed(data) {
			t.Fatalf("decodeCheckpoint accepted unsealed input")
		}
		if ok && string(got) != string(env.Payload) {
			t.Fatalf("decodeCheckpoint returned %d bytes differing from the sealed payload", len(got))
		}
	})
}

// TestFuzzSeedsDecode covers the disk halves the fuzzers skip: a
// planted file reaches LoadResult/LoadCheckpoint through the same
// decode the fuzzers verify, and corrupt files are plain misses. A
// store knows the checkpoints it saved and those Open listed, so a
// planted checkpoint is read after a reopen.
func TestFuzzSeedsDecode(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	defer func() { st.Close() }()
	reopen := func() {
		t.Helper()
		st.Close()
		st, _ = openT(t, dir)
	}

	res := fakeResult("fz01")
	if err := os.WriteFile(st.resultPath("fz01"), integrity.Seal(res.JSON(), nil), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := st.LoadResult("fz01")
	if !ok || got.ID != "fz01" || got.Cycles != res.Cycles {
		t.Fatalf("LoadResult sealed file: ok=%v got=%+v", ok, got)
	}
	if err := os.WriteFile(st.resultPath("fz01"), []byte("RVI1 deadbeef 4 0\nrot!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadResult("fz01"); ok {
		t.Fatal("LoadResult returned ok on a checksum-corrupt file")
	}

	blob := []byte("ckpt-blob")
	if err := os.WriteFile(st.checkpointPath("fz01"), integrity.Seal(blob, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	reopen()
	if b, ok := st.LoadCheckpoint("fz01"); !ok || string(b) != string(blob) {
		t.Fatalf("LoadCheckpoint sealed file: ok=%v b=%q", ok, b)
	}
	if err := os.WriteFile(st.checkpointPath("fz01"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	reopen()
	if _, ok := st.LoadCheckpoint("fz01"); ok {
		t.Fatal("LoadCheckpoint returned ok on an empty file")
	}
}

package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"regvirt/internal/jobs"
)

// FuzzJournalReplay holds the replay contract on arbitrary bytes: it
// never panics, it accepts exactly the longest valid prefix (parsing
// the reported prefix again yields the same records and consumes all
// of it), and appending garbage after a valid journal never costs a
// record.
func FuzzJournalReplay(f *testing.F) {
	// Seed with realistic journals: empty, a full accept/done/failed
	// life, and their torn/corrupt variants.
	j := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	var valid bytes.Buffer
	for _, rec := range []Record{
		{Seq: 1, Op: OpAccept, ID: "aaa1", Async: true, Job: &j},
		{Seq: 2, Op: OpAccept, ID: "bbb2", Job: &j},
		{Seq: 3, Op: OpDone, ID: "aaa1"},
		{Seq: 4, Op: OpFailed, ID: "bbb2", Err: "sim: deadlock at cycle 99"},
	} {
		frame, err := frameRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid.Write(frame)
	}
	full := valid.Bytes()
	f.Add([]byte{})
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn tail
	flipped := append([]byte(nil), full...)
	flipped[12] ^= 0x40 // corrupt first payload
	f.Add(flipped)
	f.Add(append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := readJournal(data)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0, %d]", n, len(data))
		}
		// Reparsing the accepted prefix must be a fixed point.
		recs2, n2 := readJournal(data[:n])
		if n2 != n {
			t.Fatalf("reparse consumed %d of a %d-byte valid prefix", n2, n)
		}
		if len(recs) != len(recs2) {
			t.Fatalf("reparse yielded %d records, first pass %d", len(recs2), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], recs2[i]) {
				t.Fatalf("record %d differs on reparse", i)
			}
		}
		for _, rec := range recs {
			if !validRecord(rec) {
				t.Fatalf("replay surfaced invalid record %+v", rec)
			}
		}
	})
}

// TestFuzzSeedsReplay runs the seed corpus assertions as a plain test,
// so `go test` exercises them without -fuzz.
func TestFuzzSeedsReplay(t *testing.T) {
	j := jobs.Job{Workload: "VectorAdd"}
	frame := func(rec Record) []byte {
		b, err := frameRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := frame(Record{Seq: 1, Op: OpAccept, ID: "aaa1", Job: &j})
	d := frame(Record{Seq: 2, Op: OpDone, ID: "aaa1"})
	journal := append(append([]byte{}, a...), d...)

	recs, n := readJournal(journal)
	if len(recs) != 2 || n != int64(len(journal)) {
		t.Fatalf("clean journal: %d records, %d bytes", len(recs), n)
	}
	recs, n = readJournal(journal[:len(journal)-1])
	if len(recs) != 1 || n != int64(len(a)) {
		t.Fatalf("torn tail: %d records, %d bytes (want 1, %d)", len(recs), n, len(a))
	}
	// A record that checksums but is semantically invalid (unknown op)
	// ends the replay too.
	bad := frame(Record{Seq: 3, Op: "explode", ID: "aaa1"})
	recs, _ = readJournal(append(append([]byte{}, a...), bad...))
	if len(recs) != 1 {
		t.Fatalf("invalid op accepted: %d records", len(recs))
	}
}

// FuzzShipFrames holds the standby's side of shipping on arbitrary
// bodies, both a batch of frames and a snapshot, under any generation.
// Neither call panics. A batch appends exactly the frames a correct
// copy would take: each one that the replay decoder accepts and that
// extends the copy in sequence, skipping duplicates and stopping at the
// first gap or bad frame. A snapshot installs only a body that replays
// whole, and otherwise leaves the copy as it was. Either way (gen,
// lastSeq) end at the last frame kept.
func FuzzShipFrames(f *testing.F) {
	j := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	var valid, journal []byte
	for i, rec := range []Record{
		{Seq: 1, Op: OpAccept, ID: "aaa1", Async: true, Job: &j},
		{Seq: 2, Op: OpAccept, ID: "bbb2", Job: &j},
		{Seq: 3, Op: OpDone, ID: "aaa1"},
		{Seq: 2, Op: OpAccept, ID: "bbb2", Job: &j}, // a duplicate replay
		{Seq: 4, Op: OpFailed, ID: "bbb2", Err: "sim: deadlock at cycle 99"},
	} {
		frame, err := frameRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, frame...)
		if i < 3 {
			journal = append(journal, frame...) // a journal as a resync ships it
		}
	}
	f.Add(valid, uint64(7), false)
	f.Add(valid[:len(valid)-3], uint64(7), false) // torn tail
	flipped := bytes.Clone(valid)
	second := frameHeaderSize + int(binary.LittleEndian.Uint32(valid))
	flipped[second+4] ^= 0x01 // the second frame's CRC
	f.Add(flipped, uint64(7), false)
	f.Add(journal[:len(journal)-5], uint64(7), true) // torn snapshot
	f.Add(journal, uint64(7), true)

	// The copy a snapshot replaces: gen 1, seqs 1 and 2.
	var base []byte
	for seq, rec := range []Record{{Op: OpAccept, ID: "ccc3", Job: &j}, {Op: OpDone, ID: "ccc3"}} {
		rec.Seq = uint64(seq + 1)
		frame, err := frameRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		base = append(base, frame...)
	}

	f.Fuzz(func(t *testing.T, body []byte, gen uint64, snapshot bool) {
		ss, err := OpenStandby(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		path := filepath.Join(ss.dir, "p", shippedName)
		copyOf := func() []byte {
			got, err := os.ReadFile(path)
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
			return got
		}
		recs, valid := readJournal(body)

		if snapshot {
			if _, err := ss.ApplyFrames("p", 0, 1, base); err != nil {
				t.Fatal(err)
			}
			n, err := ss.InstallSnapshot("p", 0, gen, body)
			g, l := ss.State("p")
			if valid != int64(len(body)) {
				if !errors.Is(err, ErrBadFrame) || !bytes.Equal(copyOf(), base) || g != 1 || l != 2 {
					t.Fatalf("a snapshot replaying %d of %d bytes: err %v, state (%d, %d); want ErrBadFrame and the copy as it was", valid, len(body), err, g, l)
				}
				return
			}
			var last uint64
			if len(recs) > 0 {
				last = recs[len(recs)-1].Seq
			}
			if err != nil || n != len(recs) || !bytes.Equal(copyOf(), body) || g != gen || l != last {
				t.Fatalf("a whole snapshot of %d records: installed %d, err %v, state (%d, %d); want the body as the copy at (%d, %d)", len(recs), n, err, g, l, gen, last)
			}
			return
		}

		applied, err := ss.ApplyFrames("p", 0, gen, body)
		// The copy a correct standby holds after this batch.
		var (
			want       []byte
			cgen, last uint64
			n, off     int
			stopped    bool
		)
		for _, rec := range recs {
			size := frameHeaderSize + int(binary.LittleEndian.Uint32(body[off:]))
			frame := body[off : off+size]
			off += size
			if gen != cgen {
				if cgen != 0 || last != 0 || rec.Seq != 1 {
					stopped = true
					break
				}
				cgen = gen
			}
			if rec.Seq <= last {
				continue
			}
			if rec.Seq != last+1 {
				stopped = true
				break
			}
			want = append(want, frame...)
			last = rec.Seq
			n++
		}
		if clean := !stopped && valid == int64(len(body)); (err == nil) != clean {
			t.Fatalf("err %v for a batch that a correct copy takes whole: %v", err, clean)
		}
		got := copyOf()
		if applied != n || !bytes.Equal(got, want) {
			t.Fatalf("applied %d frames (%d bytes), want %d (%d bytes)", applied, len(got), n, len(want))
		}
		if recs, valid := readJournal(got); valid != int64(len(got)) || len(recs) != n {
			t.Fatalf("the copy replays %d records over %d of %d bytes, want %d", len(recs), valid, len(got), n)
		}
		if g, l := ss.State("p"); g != cgen || l != last {
			t.Fatalf("state (%d, %d), want the last applied frame's (%d, %d)", g, l, cgen, last)
		}
	})
}

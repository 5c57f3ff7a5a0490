package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
		recs, n := readJournal(bytes.NewReader(data))
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0, %d]", n, len(data))
		}
		// Reparsing the accepted prefix must be a fixed point.
		recs2, n2 := readJournal(bytes.NewReader(data[:n]))
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

	recs, n := readJournal(bytes.NewReader(journal))
	if len(recs) != 2 || n != int64(len(journal)) {
		t.Fatalf("clean journal: %d records, %d bytes", len(recs), n)
	}
	recs, n = readJournal(bytes.NewReader(journal[:len(journal)-1]))
	if len(recs) != 1 || n != int64(len(a)) {
		t.Fatalf("torn tail: %d records, %d bytes (want 1, %d)", len(recs), n, len(a))
	}
	// A record that checksums but is semantically invalid (unknown op)
	// ends the replay too.
	bad := frame(Record{Seq: 3, Op: "explode", ID: "aaa1"})
	recs, _ = readJournal(bytes.NewReader(append(append([]byte{}, a...), bad...)))
	if len(recs) != 1 {
		t.Fatalf("invalid op accepted: %d records", len(recs))
	}
}

// FuzzShipFrames holds the standby's side of frame shipping on
// arbitrary bodies: ParseShipFrames takes whole frames only, and
// ApplyFrames never panics, appends exactly the frames a correct copy
// would take (each verifying by checksum and record, in sequence), and
// leaves (gen, lastSeq) at the last frame it appended.
func FuzzShipFrames(f *testing.F) {
	j := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	var valid []byte
	for _, rec := range []Record{
		{Seq: 1, Op: OpAccept, ID: "aaa1", Async: true, Job: &j},
		{Seq: 2, Op: OpAccept, ID: "bbb2", Job: &j},
		{Seq: 3, Op: OpDone, ID: "aaa1"},
		{Seq: 2, Op: OpAccept, ID: "bbb2", Job: &j}, // a duplicate replay
		{Seq: 4, Op: OpFailed, ID: "bbb2", Err: "sim: deadlock at cycle 99"},
	} {
		payload, err := recordPayload(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = AppendShipFrame(valid, Frame{Gen: 7, Seq: rec.Seq, CRC: crc32.Checksum(payload, castagnoli), Payload: payload})
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := bytes.Clone(valid)
	second := shipPrefix + frameHeaderSize + int(binary.LittleEndian.Uint32(valid[shipPrefix:]))
	flipped[second+shipPrefix+4] ^= 0x01 // the second frame's CRC
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, body []byte) {
		frames, perr := ParseShipFrames(body)
		var whole []byte
		for _, fr := range frames {
			whole = AppendShipFrame(whole, fr)
		}
		if !bytes.HasPrefix(body, whole) || (perr == nil) != (len(whole) == len(body)) {
			t.Fatalf("parser took %d of %d bytes as whole frames (err %v)", len(whole), len(body), perr)
		}
		ss, err := OpenStandby(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		applied, _ := ss.ApplyFrames("p", frames)

		// The copy a correct standby holds after this batch.
		var (
			want      []byte
			gen, last uint64
			n         int
		)
		for _, fr := range frames {
			if _, err := fr.Decode(); err != nil {
				break
			}
			if fr.Gen != gen {
				if gen != 0 || last != 0 || fr.Seq != 1 {
					break
				}
				gen = fr.Gen
			}
			if fr.Seq <= last {
				continue
			}
			if fr.Seq != last+1 {
				break
			}
			want = append(want, frameBytes(fr.Payload)...)
			last = fr.Seq
			n++
		}
		got, err := os.ReadFile(filepath.Join(ss.dir, "p", shippedName))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		if applied != n || !bytes.Equal(got, want) {
			t.Fatalf("applied %d frames (%d bytes), want %d (%d bytes)", applied, len(got), n, len(want))
		}
		if recs, valid := readJournal(bytes.NewReader(got)); valid != int64(len(got)) || len(recs) != n {
			t.Fatalf("the copy replays %d records over %d of %d bytes, want %d", len(recs), valid, len(got), n)
		}
		if g, l := ss.State("p"); g != gen || l != last {
			t.Fatalf("state (%d, %d), want the last applied frame's (%d, %d)", g, l, gen, last)
		}
	})
}

package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"regvirt/internal/jobs/store"
)

// FuzzShipStream feeds arbitrary bytes to the standby's ship handler as
// one stream. The handler never panics. It answers exactly one ack per
// whole message, and one refusal for a length past maxShipBody, which
// ends the stream; a message cut short gets no ack and applies nothing.
// Each ack, and the copy left on disk, match a second standby that
// checks the fence itself and then runs ApplyFrames and InstallSnapshot
// directly on the same messages.
func FuzzShipStream(f *testing.F) {
	journal := wholeJournal(f) // one accept, seq 1
	batch := shipMessage(1, 7, false, journal)
	snapshot := shipMessage(1, 7, true, journal)
	oversized := shipMessage(1, 7, false, journal)
	binary.LittleEndian.PutUint32(oversized, maxShipBody+1)
	f.Add(batch)
	f.Add(batch[:len(batch)-3])                               // a message cut short
	f.Add(shipMessage(1, 7, false, journal[:len(journal)-3])) // a whole message of torn frames
	f.Add(snapshot)
	f.Add(append(shipMessage(5, 7, true, nil), batch...)) // a stale epoch after a fence
	f.Add(append(bytes.Clone(batch), oversized...))
	f.Add(append(append(bytes.Clone(snapshot), batch...), shipMessage(1, 8, false, journal)...)) // a duplicate, then a gap

	f.Fuzz(func(t *testing.T, stream []byte) {
		dir, refDir := t.TempDir(), t.TempDir()
		sb, err := store.OpenStandby(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer sb.Close()
		ref, err := store.OpenStandby(refDir)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()

		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/ship?shard=p", bytes.NewReader(stream))
		NewShardServer("sb", nil, nil, sb, nil).Handler(http.NotFoundHandler()).ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ship stream answered HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		acks := decodeAcks(t, rec.Body.Bytes())

		var want []shipAck
		for rest := stream; len(rest) >= shipHeaderSize; {
			h := parseShipHeader(rest)
			if h.size > maxShipBody {
				want = append(want, refState(ref, shipAck{verdict: shipRefused}))
				break
			}
			if uint64(len(rest)-shipHeaderSize) < uint64(h.size) {
				break
			}
			body := rest[shipHeaderSize : shipHeaderSize+int(h.size)]
			rest = rest[shipHeaderSize+int(h.size):]
			want = append(want, refState(ref, refApply(t, ref, h, body)))
		}
		if len(acks) != len(want) {
			t.Fatalf("%d acks for %d messages", len(acks), len(want))
		}
		for i := range acks {
			if acks[i] != want[i] {
				t.Fatalf("ack %d = %+v, want %+v", i, acks[i], want[i])
			}
		}
		for _, name := range []string{"shipped.wal", "journal.gen", "fence.epoch"} {
			got, want := readIfAny(t, filepath.Join(dir, "p", name)), readIfAny(t, filepath.Join(refDir, "p", name))
			if !bytes.Equal(got, want) {
				t.Fatalf("standby %s is %x, want %x", name, got, want)
			}
		}
	})
}

// refApply is the standby's rule for one message, applied to ref by
// calling the store directly. Below the fence nothing applies, checked
// here before the store is called, so the store's own check is tested
// against it; otherwise the store raises the fence, and a batch
// appends, asking for a resync at a gap or a bad frame, and a snapshot
// installs if it replays whole.
func refApply(t *testing.T, ref *store.StandbyStore, h shipHeader, body []byte) shipAck {
	if h.epoch < ref.FenceEpoch("p") {
		return shipAck{verdict: shipFenced}
	}
	if h.snapshot {
		n, err := ref.InstallSnapshot("p", h.epoch, h.gen, body)
		if errors.Is(err, store.ErrBadFrame) {
			return shipAck{verdict: shipRefused}
		} else if err != nil {
			t.Fatal(err)
		}
		return shipAck{verdict: shipOK, applied: uint32(n)}
	}
	n, err := ref.ApplyFrames("p", h.epoch, h.gen, body)
	switch {
	case err == nil:
		return shipAck{verdict: shipOK, applied: uint32(n)}
	case errors.Is(err, store.ErrGap) || errors.Is(err, store.ErrBadFrame):
		return shipAck{verdict: shipResync, applied: uint32(n)}
	}
	t.Fatal(err)
	return shipAck{}
}

// refState fills in what an ack reports of the copy after a message.
func refState(ref *store.StandbyStore, a shipAck) shipAck {
	a.gen, a.lastSeq = ref.State("p")
	a.fence = ref.FenceEpoch("p")
	return a
}

func readIfAny(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return b
}

// readSizes records the largest buffer a Read was handed.
type readSizes struct {
	r   io.Reader
	max int
}

func (s *readSizes) Read(p []byte) (int, error) {
	s.max = max(s.max, len(p))
	return s.r.Read(p)
}

// TestShipStreamClaimedLengthBounded: a message whose header claims
// maxShipBody bytes and then sends 10 holds a read buffer of at most
// shipReadChunk, not of its claim, and is refused as cut short. A long
// message still reads back whole.
func TestShipStreamClaimedLengthBounded(t *testing.T) {
	r := &readSizes{r: bytes.NewReader(make([]byte, 10))}
	if _, err := readMessage(r, maxShipBody); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a message cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	if r.max > shipReadChunk {
		t.Errorf("read into %d bytes for a message that sent 10, want at most %d", r.max, shipReadChunk)
	}
	want := make([]byte, 3*shipReadChunk+5)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got, err := readMessage(bytes.NewReader(want), len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a %d-byte message read back as %d bytes (err %v)", len(want), len(got), err)
	}
}

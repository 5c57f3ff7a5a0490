package integrity

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSealOpenRoundTrip(t *testing.T) {
	cases := []struct{ payload, spec string }{
		{"", ""},
		{`{"ok":true}` + "\n", ""},
		{`{"ok":true}` + "\n", `{"kernel":"spin"}`},
		{strings.Repeat("x", 1<<16), "spec"},
	}
	for _, c := range cases {
		sealed := Seal([]byte(c.payload), []byte(c.spec))
		env, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open(Seal(%q)): %v", c.payload, err)
		}
		if string(env.Payload) != c.payload || string(env.Spec) != c.spec {
			t.Fatalf("round trip mismatch: payload=%q spec=%q", env.Payload, env.Spec)
		}
	}
}

// Input without the magic has no unverified read path: raw JSON (what
// a pre-envelope store held), an empty file, and a bare magic with no
// separator are all corrupt.
func TestOpenRejectsUnsealed(t *testing.T) {
	for _, raw := range []string{`{"plain":"json result with no envelope"}`, "", magic, magic + "\n"} {
		env, err := Open([]byte(raw))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("Open(%q) = (%+v, %v), want *CorruptError", raw, env, err)
		}
		if env.Payload != nil {
			t.Fatalf("Open(%q) returned an unverified payload", raw)
		}
	}
}

// Every single-bit flip anywhere in an envelope, the magic included,
// must be detected.
func TestOpenDetectsBitFlips(t *testing.T) {
	payload, spec := []byte(`{"cycles":12345}`+"\n"), []byte(`{"kernel":"k"}`)
	sealed := Seal(payload, spec)
	for i := 0; i < len(sealed); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(sealed)
			mut[i] ^= 1 << bit
			env, err := Open(mut)
			if err == nil {
				// The only tolerable clean open is a value-preserving
				// flip (e.g. a hex digit changing case in the header):
				// the decoded content must still be exactly right.
				if !bytes.Equal(env.Payload, payload) || !bytes.Equal(env.Spec, spec) {
					t.Fatalf("flip at byte %d bit %d went undetected", i, bit)
				}
			}
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at byte %d bit %d: error is %T, want *CorruptError", i, bit, err)
				}
			}
		}
	}
}

func TestOpenTruncationAndExtension(t *testing.T) {
	sealed := Seal([]byte("payload"), nil)
	if _, err := Open(sealed[:len(sealed)-1]); err == nil {
		t.Fatalf("truncated envelope opened cleanly")
	}
	if _, err := Open(append(bytes.Clone(sealed), 'x')); err == nil {
		t.Fatalf("extended envelope opened cleanly")
	}
	if _, err := Open([]byte(magic + " zz 1 0\nx")); err == nil {
		t.Fatalf("garbage checksum field opened cleanly")
	}
	if _, err := Open([]byte(magic + " 00000000 99999999999999999999 0\n")); err == nil {
		t.Fatalf("overflowing length field opened cleanly")
	}
}

func TestScrubberRunsAndStops(t *testing.T) {
	var passes atomic.Int64
	s := &Scrubber{
		Every: 5 * time.Millisecond,
		Pass: func() Report {
			passes.Add(1)
			return Report{Scanned: 1}
		},
	}
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for passes.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if got := passes.Load(); got < 3 {
		t.Fatalf("scrubber ran %d passes, want >= 3", got)
	}
	settled := passes.Load()
	time.Sleep(30 * time.Millisecond)
	if passes.Load() != settled {
		t.Fatalf("scrubber kept running after Stop")
	}
	s.Stop() // second Stop is a no-op
}

func TestScrubberDisabled(t *testing.T) {
	s := &Scrubber{Every: 0, Pass: func() Report { return Report{} }}
	s.Start() // no-op; Stop on a never-started scrubber must not hang
	s.Stop()
}

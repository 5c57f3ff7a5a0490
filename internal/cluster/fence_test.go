package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
)

// TestFencingShipperLatchesAndRejoins walks the whole fencing
// lifecycle at package level: a shard ships to its standby, the
// standby's copy is adopted at a higher epoch (as the router would
// after declaring the shard dead), and from that instant the deposed
// shard must stop being a writer — its ships are answered fenced, its
// shipper latches, its submit endpoint turns away work — until a
// fresh epoch grant lets it rejoin via snapshot resync.
func TestFencingShipperLatchesAndRejoins(t *testing.T) {
	a := newTestShard(t, "a")
	hub := newTestShard(t, "hub")
	a.serve("hub", hub.url)
	hub.serve("", "")

	ctx := context.Background()
	c := client.New(a.url)
	if _, err := c.Submit(ctx, jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hub standby copy of a", 10*time.Second, func() bool {
		_, lastSeq := hub.sb.State("a")
		return lastSeq > 0
	})

	// The hub adopts a's keyspace at epoch 2 — exactly what the router
	// does on failover. The fence must persist on the standby and every
	// subsequent epoch-1 ship must bounce.
	resp, err := http.Post(hub.url+"/v1/cluster/adopt", "application/json",
		strings.NewReader(`{"shard":"a","epoch":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt: HTTP %d, want 200", resp.StatusCode)
	}
	if got := hub.sb.FenceEpoch("a"); got != 2 {
		t.Fatalf("hub fence after adopt = %d, want 2", got)
	}

	// The deposed shard may not know yet. If the fence hasn't propagated
	// (the background flusher hasn't bounced), the next submission still
	// succeeds locally — local durability never depends on the standby —
	// and its synchronous ship is answered fenced, latching the shipper. If
	// the flusher already latched, the submission is refused 503 instead.
	// Either way, no epoch-1 write ever reaches the hub's copy again.
	resp2, err := http.Post(a.url+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"VectorAdd","physregs":512}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK && resp2.StatusCode != http.StatusAccepted &&
		resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during fencing: HTTP %d, want 200/202 (local durability) or 503 (already latched)", resp2.StatusCode)
	}
	waitFor(t, "shipper fenced latch", 10*time.Second, func() bool {
		_, fenced := a.ship.own.load()
		return fenced
	})

	// The shard server reads the latch the shipper set, so new
	// submissions are refused with a typed 503 from that moment until a
	// grant.
	resp3, err := http.Post(a.url+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"MatrixMul"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	var apiErr jobs.APIError
	if resp3.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &apiErr) != nil || apiErr.Kind != "fenced" {
		t.Fatalf("submit right after the latch: HTTP %d %s, want 503 kind fenced", resp3.StatusCode, body)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Errorf("fenced 503 missing Retry-After")
	}

	// Status surfaces the condition for the router's probe.
	var ns NodeStatus
	getJSON(t, a.url+"/v1/cluster", &ns)
	if !ns.Fenced || ns.Epoch != 1 {
		t.Errorf("fenced shard status = epoch %d fenced %v, want epoch 1 fenced", ns.Epoch, ns.Fenced)
	}

	// Grants must name our keyspace and strictly advance.
	for _, bad := range []string{
		`{"keyspace":"zz","epoch":9}`,
		`{"keyspace":"a","epoch":1}`,
	} {
		resp, err := http.Post(a.url+"/v1/cluster/epoch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("epoch grant %s: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}

	// A real grant (the router hands out fence+1 after the probe sees
	// the stale epoch) clears both latches; the shipper rejoins by
	// resyncing its whole journal at the new epoch, which ratchets the
	// hub's fence up to 3.
	resp, err = http.Post(a.url+"/v1/cluster/epoch", "application/json",
		strings.NewReader(`{"keyspace":"a","epoch":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch grant: HTTP %d, want 200", resp.StatusCode)
	}
	waitFor(t, "hub fence ratcheted by rejoin resync", 10*time.Second, func() bool {
		return hub.sb.FenceEpoch("a") == 3
	})

	_, seqBefore := hub.sb.State("a")
	res, err := c.Submit(ctx, jobs.Job{Workload: "MatrixMul"})
	if err != nil {
		t.Fatalf("submit after rejoin: %v", err)
	}
	if res == nil {
		t.Fatal("nil result after rejoin")
	}
	waitFor(t, "post-rejoin frames shipped", 10*time.Second, func() bool {
		_, seq := hub.sb.State("a")
		return seq > seqBefore
	})

	var ns2 NodeStatus // fresh struct: omitempty fields don't overwrite on decode
	getJSON(t, a.url+"/v1/cluster", &ns2)
	if ns2.Fenced || ns2.Epoch != 3 {
		t.Errorf("rejoined shard status = epoch %d fenced %v, want epoch 3 unfenced", ns2.Epoch, ns2.Fenced)
	}
}

// TestShipFencedAtLowerEpoch pins the wire-level contract directly,
// one message per POST: a message stamped below the standby's fence is
// answered with a fenced ack carrying the fence, and applies nothing;
// a higher epoch teaches the standby the new fence. Every message is a
// snapshot of an empty journal, but the last: a torn one, which is
// refused.
func TestShipFencedAtLowerEpoch(t *testing.T) {
	hub := newTestShard(t, "hub")
	hub.serve("", "")

	var journal []byte
	ship := func(shard string, epoch uint64) shipAck {
		t.Helper()
		resp, err := http.Post(hub.url+"/v1/cluster/ship?shard="+shard, shipType, bytes.NewReader(shipMessage(epoch, 1, true, journal)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ship to %s at epoch %d: HTTP %d (body %s), want 200", shard, epoch, resp.StatusCode, raw)
		}
		acks := decodeAcks(t, raw)
		if len(acks) != 1 {
			t.Fatalf("ship to %s at epoch %d: %d acks for one message", shard, epoch, len(acks))
		}
		return acks[0]
	}

	// Epoch 5 snapshot: accepted, fence learned.
	if a := ship("a", 5); a.verdict != shipOK || a.fence != 5 {
		t.Fatalf("epoch-5 ship: ack %+v, want ok at fence 5", a)
	}
	if got := hub.sb.FenceEpoch("a"); got != 5 {
		t.Fatalf("fence after epoch-5 ship = %d, want 5", got)
	}

	// Epoch 3: fenced, with the fence it fell below, and nothing
	// applied: a one-record journal at a new generation would have
	// replaced the copy.
	journal = wholeJournal(t)
	if a := ship("a", 3); a.verdict != shipFenced || a.fence != 5 || a.applied != 0 {
		t.Errorf("stale ship: ack %+v, want fenced at 5 with nothing applied", a)
	}
	if _, last := hub.sb.State("a"); last != 0 {
		t.Errorf("stale ship reached the copy: last seq %d", last)
	}
	journal = nil

	// Epoch 0 is below any fence, so it is fenced once one exists; a
	// keyspace never fenced (0 < 0 is false) takes it.
	if a := ship("a", 0); a.verdict != shipFenced || a.fence != 5 {
		t.Errorf("epoch-0 ship against fence 5: ack %+v, want fenced at 5", a)
	}
	if a := ship("b", 0); a.verdict != shipOK {
		t.Errorf("epoch-0 ship on unfenced keyspace: ack %+v, want ok", a)
	}

	// A snapshot that does not replay whole is refused, not acknowledged
	// with a resync verdict: the shipper must keep its resync pending.
	journal = []byte{9, 0, 0, 0, 1, 2, 3, 4, '{'}
	if a := ship("b", 0); a.verdict != shipRefused {
		t.Errorf("torn snapshot: ack %+v, want refused", a)
	}
}

// TestFencedOwnerRejoinsRestartedRouter: a router started after an
// adoption knows nothing of it and starts every keyspace at epoch 1. It
// learns the adoption's epoch from the standby's fence in its probes,
// so it grants the deposed, fenced owner an epoch above that fence
// instead of marking it healthy at epoch 1; the owner rejoins, and a
// submit routed to its keyspace succeeds there.
func TestFencedOwnerRejoinsRestartedRouter(t *testing.T) {
	a := newTestShard(t, "a")
	hub := newTestShard(t, "hub")
	a.serve("hub", hub.url)
	hub.serve("", "")

	ctx := context.Background()
	c := client.New(a.url)
	if _, err := c.Submit(ctx, jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hub standby copy of a", 10*time.Second, func() bool {
		_, lastSeq := hub.sb.State("a")
		return lastSeq > 0
	})
	// The hub adopts a at epoch 2, as a router that has since stopped did;
	// a's next ship is fenced and latches it.
	resp, err := http.Post(hub.url+"/v1/cluster/adopt", "application/json",
		strings.NewReader(`{"shard":"a","epoch":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt: HTTP %d, want 200", resp.StatusCode)
	}
	c.Submit(ctx, jobs.Job{Workload: "MatrixMul"}) // served locally or refused fenced
	waitFor(t, "a fenced", 10*time.Second, func() bool {
		_, fenced := a.ship.own.load()
		return fenced
	})

	r, rURL := startRouter(t, []ShardInfo{{Name: "a", URL: a.url}, {Name: "hub", URL: hub.url}})
	waitFor(t, "router grants a an epoch above the hub's fence", 10*time.Second, func() bool {
		for _, row := range routerStatus(t, rURL).Shards {
			if row.Name == "a" {
				return row.Healthy && row.Epoch > 2
			}
		}
		return false
	})
	epoch, fenced := a.ship.own.load()
	if fenced || epoch <= 2 {
		t.Fatalf("a after the grant: epoch %d fenced %v, want an epoch above 2, unfenced", epoch, fenced)
	}
	waitFor(t, "a's rejoin resync raises the hub's fence", 10*time.Second, func() bool {
		return hub.sb.FenceEpoch("a") == epoch
	})

	var job jobs.Job
	for i := 0; ; i++ {
		if job = tinyJob(i); r.ring.Owner(job.Key()) == "a" {
			break
		}
	}
	body, _ := json.Marshal(job)
	resp, err = http.Post(rURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit to a's keyspace: HTTP %d %s, want 200", resp.StatusCode, raw)
	}
	if by, ep := resp.Header.Get(ServedByHeader), resp.Header.Get(EpochHeader); by != "a" || ep != strconv.FormatUint(epoch, 10) {
		t.Errorf("submit served by %q at epoch %s, want a at %d", by, ep, epoch)
	}
}

// TestFenceLatchNeverOutlivesGrant races a fenced ack for epoch 1
// against a grant of epoch 2 on one ownership record. Whichever lands
// first, the record ends at epoch 2 and unfenced: a latch for an epoch
// a grant has replaced must not take.
func TestFenceLatchNeverOutlivesGrant(t *testing.T) {
	for i := 0; i < 1000; i++ {
		o := newOwnership()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); o.fence(1) }()
		go func() { defer wg.Done(); o.grant(2) }()
		wg.Wait()
		if epoch, fenced := o.load(); epoch != 2 || fenced {
			t.Fatalf("after a latch at 1 and a grant of 2: epoch %d fenced %v, want 2 unfenced", epoch, fenced)
		}
	}
	o := newOwnership()
	if _, _, ok := o.grant(1); ok {
		t.Error("a grant of the current epoch took")
	}
	if _, _, ok := o.grant(1 << 63); ok {
		t.Error("a grant past the record's word took")
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

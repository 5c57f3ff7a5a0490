package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/sim"
)

// TestRouterSettings pins the router's fixed probe, retry and ring
// settings.
func TestRouterSettings(t *testing.T) {
	r, err := NewRouter([]ShardInfo{{Name: "s1", URL: "http://127.0.0.1:1"}}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := client.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
	if r.probeEvery != 500*time.Millisecond || probeTimeout != 2*time.Second || failAfter != 2 || r.policy != want {
		t.Errorf("probe every %v timeout %v, down after %d, retry %+v; want 500ms, 2s, 2, %+v",
			r.probeEvery, probeTimeout, failAfter, r.policy, want)
	}
	if n := len(r.ring.points); n != 64 {
		t.Errorf("ring has %d points for one shard, want 64 vnodes", n)
	}
}

// TestMalformedSubmitSameBody: the router and a shard answer a
// malformed POST /v1/jobs — an oversized kernel or register file, or
// more than a few KiB after the JSON value, too — through the same
// responder, so the 400 bodies are byte-identical whichever one a
// client reaches.
func TestMalformedSubmitSameBody(t *testing.T) {
	pool := jobs.NewPool(1)
	t.Cleanup(pool.Close)
	shard := httptest.NewServer(jobs.NewServer(pool).Handler())
	t.Cleanup(shard.Close)
	_, routerURL := startRouter(t, []ShardInfo{{Name: "s1", URL: shard.URL}})

	post := func(base, body string) (int, string, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}
	// A kernel one instruction over the cap is refused before any
	// compile work, with the same body from both.
	over, err := json.Marshal(jobs.Job{Kernel: ".kernel big\n" + strings.Repeat("    nop\n", jobs.MaxKernelInstrs) + "    exit\n"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, body := post(shard.URL, string(over)); !strings.Contains(body, fmt.Sprintf("more than the %d", jobs.MaxKernelInstrs)) {
		t.Errorf("oversized kernel: shard answered %s, want the instruction cap named", body)
	}
	for _, body := range []string{
		`{"workload":`,
		`{"workload":"VectorAdd","bogus":1}`,
		`{}`,
		`{"workload":"VectorAdd","mode":"virtual"}`,
		`{"workload":"VectorAdd","physregs":100}`,
		fmt.Sprintf(`{"workload":"VectorAdd","gpu":true,"physregs":%d}`, sim.MaxPhysRegs+16),
		string(over),
		`{"workload":"VectorAdd"}` + strings.Repeat(" ", 10_000),
	} {
		sCode, sType, sBody := post(shard.URL, body)
		rCode, rType, rBody := post(routerURL, body)
		if sCode != http.StatusBadRequest || rCode != http.StatusBadRequest {
			t.Errorf("%s: status shard %d, router %d, want 400 from both", body, sCode, rCode)
		}
		if sType != rType || sBody != rBody {
			t.Errorf("%s: bodies differ\nshard  (%s) %s\nrouter (%s) %s", body, sType, sBody, rType, rBody)
		}
	}
}

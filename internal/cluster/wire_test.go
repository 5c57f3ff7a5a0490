package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"strings"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
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

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestControlBodyBounded: an epoch grant or an adoption request whose
// body is larger than maxControlBody is refused with a 400 after at
// most maxControlBody bytes of it are read.
func TestControlBodyBounded(t *testing.T) {
	sb, err := store.OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	pool := jobs.NewPool(1)
	t.Cleanup(pool.Close)
	h := NewShardServer("a", pool, nil, sb, nil).Handler(http.NotFoundHandler())
	for path, field := range map[string]string{"/v1/cluster/epoch": "keyspace", "/v1/cluster/adopt": "shard"} {
		body := &countingReader{r: strings.NewReader(`{"` + field + `":"` + strings.Repeat("a", 1<<20) + `","epoch":2}`)}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", path, rec.Code)
		}
		if body.n > maxControlBody {
			t.Errorf("%s: read %d body bytes, want at most %d", path, body.n, maxControlBody)
		}
	}
}

// TestInvalidShardNameRefused: an adoption request or a ship naming a
// shard the standby store cannot hold (outside [A-Za-z0-9_-], or over
// 128 bytes) is a 400, answered before any fence or recover work, and
// the standby is left as it was.
func TestInvalidShardNameRefused(t *testing.T) {
	sb, err := store.OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	pool := jobs.NewPool(1)
	t.Cleanup(pool.Close)
	h := NewShardServer("a", pool, nil, sb, nil).Handler(http.NotFoundHandler())
	for _, name := range []string{"../x", strings.Repeat("b", 129)} {
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/cluster/adopt", strings.NewReader(`{"shard":"`+name+`","epoch":2}`)),
			httptest.NewRequest(http.MethodPost, "/v1/cluster/adopt", strings.NewReader(`{"shard":"`+name+`"}`)),
			httptest.NewRequest(http.MethodPost, "/v1/cluster/ship?shard="+url.QueryEscape(name), strings.NewReader("")),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s naming %.8q…: HTTP %d (%s), want 400", req.URL.Path, name, rec.Code, strings.TrimSpace(rec.Body.String()))
			}
		}
		if f := sb.FenceEpoch(name); f != 0 {
			t.Errorf("standby fenced %.8q… at epoch %d", name, f)
		}
	}
	if st := sb.Status(); len(st) != 0 {
		t.Errorf("standby holds %+v after refused requests, want nothing", st)
	}
}

// TestMalformedSubmitSameBody: the router and a shard answer a
// malformed POST /v1/jobs — an oversized kernel or register file, more
// than a few KiB after the JSON value, or an inline kernel that does
// not assemble, too — with the same 400, byte for byte, whichever one
// a client reaches.
func TestMalformedSubmitSameBody(t *testing.T) {
	pool := jobs.NewPool(1)
	t.Cleanup(pool.Close)
	shard := httptest.NewServer(NewShardServer("s1", pool, nil, nil, nil).Handler(jobs.NewServer(pool).Handler()))
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
		// Validate only counts an inline kernel's lines; these fail in
		// the assembler, which must still make them invalid jobs.
		`{"kernel":"this is not assembly"}`,
		`{"kernel":".kernel k\n.reg 4\n    iadd r0, r1\n    exit\n"}`,
		`{"kernel":".kernel k\n.reg 4\n    bra nowhere\n    exit\n"}`,
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

// TestHeaderNamesCanonical: every regvd header name is spelled as
// net/http writes it on the wire, so Header.Get and Set use it as the
// map key as it is instead of building a canonical one first.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, name := range []string{jobs.TenantHeader, obs.TraceHeader, KeyspaceHeader, EpochHeader, ServedByHeader} {
		if c := textproto.CanonicalMIMEHeaderKey(name); c != name {
			t.Errorf("header name %q is not canonical (%q)", name, c)
		}
	}
}

// TestRouterRelaysResultBytes: the router answers a submit with the
// bytes a shard would have written, whether it relays a forwarded
// answer or serves its byte cache (tenant spliced in or not, sync,
// async or status), and never decodes a result on the way.
func TestRouterRelaysResultBytes(t *testing.T) {
	pool := jobs.NewPool(1)
	t.Cleanup(pool.Close)
	shard := httptest.NewServer(NewShardServer("s1", pool, nil, nil, nil).Handler(jobs.NewServer(pool).Handler()))
	t.Cleanup(shard.Close)
	_, routerURL := startRouter(t, []ShardInfo{{Name: "s1", URL: shard.URL}})

	do := func(method, url, tenant, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(jobs.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	job := `{"workload":"VectorAdd","physregs":512}`
	id := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}.Key()
	for _, tc := range []struct{ name, method, path, tenant, body string }{
		{"forwarded", http.MethodPost, "/v1/jobs", "alice", job},
		{"cached, another tenant", http.MethodPost, "/v1/jobs", "bob", job},
		{"cached, tenant in the body", http.MethodPost, "/v1/jobs", "", `{"workload":"VectorAdd","physregs":512,"tenant":"carol"}`},
		{"cached, tenantless", http.MethodPost, "/v1/jobs", "", job},
		{"cached, async", http.MethodPost, "/v1/jobs?async=1", "alice", job},
		{"cached, status", http.MethodGet, "/v1/jobs/" + id, "", ""},
	} {
		rCode, rBody := do(tc.method, routerURL+tc.path, tc.tenant, tc.body)
		sCode, sBody := do(tc.method, shard.URL+tc.path, tc.tenant, tc.body)
		if rCode != sCode || rBody != sBody {
			t.Errorf("%s: router answered %d\n%s\nshard answered %d\n%s", tc.name, rCode, rBody, sCode, sBody)
		}
	}
	if got := pool.Metrics().Executed; got != 1 {
		t.Errorf("shard executed %d jobs, want 1", got)
	}
}

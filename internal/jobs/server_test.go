package jobs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, workers int) (*Pool, *httptest.Server) {
	t.Helper()
	p := NewPool(workers)
	ts := httptest.NewServer(NewServer(p).Handler())
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	return p, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestMalformedSubmit: broken bodies are 400s with a structured error,
// never 500s.
func TestMalformedSubmit(t *testing.T) {
	_, ts := newTestServer(t, 1)
	cases := []string{
		`{not json`,
		`{"workload": 42}`,
		`{"workload": "VectorAdd", "unknown_field": true}`,
		`{}`,
		`{"workload": "NoSuchWorkload"}`,
		`{"workload": "VectorAdd", "kernel": "both"}`,
		`{"workload": "VectorAdd", "mode": "bogus"}`,
		`{"workload": "VectorAdd", "physregs": 7}`,
	}
	for _, body := range cases {
		resp, got := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
		var e APIError
		if err := json.Unmarshal(got, &e); err != nil || e.Message == "" {
			t.Errorf("POST %s: body %q is not a structured error", body, got)
		}
	}
	// A compile-time failure in an inline kernel is also a client error
	// surfaced as a structured message, not a panic.
	resp, got := postJob(t, ts, `{"kernel": "this is not assembly"}`)
	if resp.StatusCode == http.StatusOK {
		t.Errorf("bogus kernel accepted: %s", got)
	}
	var e APIError
	if err := json.Unmarshal(got, &e); err != nil || e.Message == "" {
		t.Errorf("bogus kernel: body %q is not a structured error", got)
	}
}

func TestSyncSubmitAndStatus(t *testing.T) {
	_, ts := newTestServer(t, 2)
	resp, body := postJob(t, ts, `{"workload": "VectorAdd", "physregs": 512}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad result body: %v", err)
	}
	if res.ID == "" || res.Cycles == 0 || res.StoresDigest == "" {
		t.Errorf("incomplete result: %s", body)
	}
	// Sync results are addressable by ID afterwards.
	get, err := http.Get(ts.URL + "/v1/jobs/" + res.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Errorf("GET after sync submit: status %d", get.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(get.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Result == nil || st.Result.Cycles != res.Cycles {
		t.Errorf("status = %+v, want done with matching result", st)
	}
}

func TestAsyncSubmit(t *testing.T) {
	_, ts := newTestServer(t, 2)
	resp, body := postJob(t, ts, `{"workload": "Reduction", "async": true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("no job ID in %s", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		get, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(get.Body).Decode(&st)
		get.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 30s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" || st.Result == nil {
		t.Fatalf("final status %+v, want done", st)
	}
	// The same job submitted synchronously is a cache hit with an
	// identical encoding.
	resp, body = postJob(t, ts, `{"workload": "Reduction"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync re-submit status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, st.Result.JSON()) {
		t.Error("async result and sync re-submit disagree")
	}
}

func TestUnknownJobID(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndMetricsAndWorkloads(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, path := range []string{"/healthz", "/metrics", "/v1/workloads"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("GET %s: status %d, decode err %v", path, resp.StatusCode, err)
		}
	}
}

// TestQueryValueMatchesValuesGet: ReadJob reads ?async= from the raw
// query without building url.Values, so QueryValue must answer exactly
// as url.Values.Get of the parsed query does: first value wins, key and
// value are unescaped, and a pair holding ';' or a bad escape is
// skipped. Fixed cases, then random queries over a small alphabet.
func TestQueryValueMatchesValuesGet(t *testing.T) {
	queries := []string{
		"", "async=1", "async=0&async=1", "async=1&async=0", "a%73ync=%31", "async=%zz&async=1",
		"async;x=1&async=2", "async=1;x", "async", "async=", "&&async=1&", "x=1&async=1+2",
		"async%=1&async=3", "async=a%20b", "async==1", "=1&async=4", "async=%",
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "async=&;%+01zA"
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(14))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		queries = append(queries, string(b))
	}
	for _, q := range queries {
		vals, _ := url.ParseQuery(q)
		for _, key := range []string{"async", "x", ""} {
			if got, want := QueryValue(q, key), vals.Get(key); got != want {
				t.Fatalf("QueryValue(%q, %q) = %q, url.Values.Get = %q", q, key, got, want)
			}
		}
	}
}

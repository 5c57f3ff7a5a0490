package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/obs"
)

// fastPolicy keeps test retries near-instant.
func fastPolicy(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// scriptServer replies with each scripted response in turn, then
// repeats the last one.
type scripted struct {
	status int
	header map[string]string
	body   string
}

func scriptServer(t *testing.T, script []scripted, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(hits.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		for k, v := range script[i].header {
			w.Header().Set(k, v)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(script[i].status)
		w.Write([]byte(script[i].body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestSubmitRetriesOverloadThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	res := jobs.Result{ID: "abc", Cycles: 42}
	ok, _ := json.Marshal(res)
	ts := scriptServer(t, []scripted{
		{status: 429, header: map[string]string{"Retry-After": "1"},
			body: `{"error":"overloaded","kind":"overloaded","status":429,"retry_after_ms":1}`},
		{status: 500, body: `{"error":"worker panicked","kind":"panic","status":500}`},
		{status: 200, body: string(ok)},
	}, &hits)

	c := New(ts.URL, WithPolicy(fastPolicy(5)), WithSeed(1))
	got, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got.ID != "abc" || got.Cycles != 42 {
		t.Errorf("result = %+v", got)
	}
	if hits.Load() != 3 {
		t.Errorf("server hits = %d, want 3 (429, panic-500, 200)", hits.Load())
	}
	m := c.Metrics()
	if m.Attempts != 3 || m.Retries != 2 || m.Overloads != 1 {
		t.Errorf("metrics = %+v, want 3 attempts / 2 retries / 1 overload", m)
	}
}

func TestSubmitDoesNotRetryInvariantOr400(t *testing.T) {
	cases := []struct {
		name string
		resp scripted
	}{
		{"invariant-500", scripted{status: 500,
			body: `{"error":"sim: invariant","kind":"invariant","status":500,"invariant":{"msg":"allocation failed after pre-check","cycle":7,"warp":3}}`}},
		{"validation-400", scripted{status: 400, body: `{"error":"jobs: one of workload or kernel is required","status":400}`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			ts := scriptServer(t, []scripted{tc.resp}, &hits)
			c := New(ts.URL, WithPolicy(fastPolicy(5)), WithSeed(1))
			_, err := c.Submit(context.Background(), jobs.Job{})
			if err == nil {
				t.Fatal("want error")
			}
			apiErr, ok := err.(*jobs.APIError)
			if !ok {
				t.Fatalf("error type %T, want *jobs.APIError: %v", err, err)
			}
			if apiErr.Status != tc.resp.status {
				t.Errorf("status = %d, want %d", apiErr.Status, tc.resp.status)
			}
			if hits.Load() != 1 {
				t.Errorf("server hits = %d, want 1 (no retries)", hits.Load())
			}
			if tc.name == "invariant-500" && (apiErr.Invariant == nil || apiErr.Invariant.Cycle != 7) {
				t.Errorf("invariant context not decoded: %+v", apiErr.Invariant)
			}
		})
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{
		{status: 503, body: `{"error":"closing","kind":"closed","status":503}`},
	}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(3)), WithSeed(1))
	_, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	if err == nil {
		t.Fatal("want give-up error")
	}
	if hits.Load() != 3 {
		t.Errorf("server hits = %d, want MaxAttempts=3", hits.Load())
	}
}

func TestRetryAfterHintIsFloor(t *testing.T) {
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{
		{status: 429, body: `{"error":"overloaded","kind":"overloaded","status":429,"retry_after_ms":60}`},
		{status: 200, body: `{"id":"x","cycles":1}`},
	}, &hits)
	c := New(ts.URL, WithPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Second}), WithSeed(1))
	start := time.Now()
	if _, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Errorf("retried after %v, want >= 60ms (Retry-After floor)", d)
	}
}

func TestRetryAfterHeaderFallback(t *testing.T) {
	// A 503 with only the Retry-After header (no retry_after_ms body
	// field) still produces a floor via the header.
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{
		{status: 503, header: map[string]string{"Retry-After": "1"}, body: `{"error":"closing","kind":"closed","status":503}`},
	}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(1)), WithSeed(1))
	_, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	var apiErr *jobs.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if apiErr.RetryAfterMS != 1000 {
		t.Errorf("RetryAfterMS = %d, want 1000 from header", apiErr.RetryAfterMS)
	}
}

// TestParseRetryAfter covers both value forms RFC 9110 allows and the
// malformed cases that must fall back to plain backoff (zero) instead
// of parsing as "retry immediately".
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		name string
		v    string
		min  time.Duration
		max  time.Duration
	}{
		{"delta-seconds", "15", 15 * time.Second, 15 * time.Second},
		{"zero-seconds", "0", 0, 0},
		{"negative-seconds", "-3", 0, 0},
		{"http-date-future", time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat), 25 * time.Second, 30 * time.Second},
		{"http-date-past", time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), 0, 0},
		{"rfc850-date-future", time.Now().Add(30 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), 25 * time.Second, 30 * time.Second},
		{"malformed", "soon", 0, 0},
		{"empty", "", 0, 0},
		{"float", "1.5", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := parseRetryAfter(tc.v)
			if d < tc.min || d > tc.max {
				t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", tc.v, d, tc.min, tc.max)
			}
		})
	}
}

// TestRetryAfterHTTPDateHeader: a Retry-After carrying an HTTP-date
// (the other form RFC 9110 allows) reaches RetryAfterMS just like
// delta-seconds, and a malformed value leaves it zero.
func TestRetryAfterHTTPDateHeader(t *testing.T) {
	date := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{
		{status: 503, header: map[string]string{"Retry-After": date}, body: `{"error":"closing","kind":"closed","status":503}`},
	}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(1)), WithSeed(1))
	_, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	var apiErr *jobs.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	// The date is relative to the wall clock, so allow generous slack
	// below; above is bounded by construction.
	if apiErr.RetryAfterMS < 60_000 || apiErr.RetryAfterMS > 90_000 {
		t.Errorf("RetryAfterMS = %d, want ~90000 from HTTP-date header", apiErr.RetryAfterMS)
	}

	hits.Store(0)
	ts2 := scriptServer(t, []scripted{
		{status: 503, header: map[string]string{"Retry-After": "eventually"}, body: `{"error":"closing","kind":"closed","status":503}`},
	}, &hits)
	c2 := New(ts2.URL, WithPolicy(fastPolicy(1)), WithSeed(1))
	_, err = c2.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if apiErr.RetryAfterMS != 0 {
		t.Errorf("malformed Retry-After parsed to %d ms, want 0 (plain backoff)", apiErr.RetryAfterMS)
	}
}

func TestContextCancelStopsRetryLoop(t *testing.T) {
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{
		{status: 503, body: `{"error":"closing","kind":"closed","status":503}`},
	}, &hits)
	c := New(ts.URL, WithPolicy(RetryPolicy{MaxAttempts: 100, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}), WithSeed(1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, jobs.Job{Workload: "VectorAdd"})
	if err == nil {
		t.Fatal("want error")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("retry loop ignored context cancellation")
	}
}

func TestNonJSONErrorBodyStillStructured(t *testing.T) {
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{{status: 502, body: "bad gateway\n"}}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(2)), WithSeed(1))
	_, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	var apiErr *jobs.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if apiErr.Status != 502 || apiErr.Message == "" {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if hits.Load() != 2 {
		t.Errorf("502 should be retried: hits = %d", hits.Load())
	}
}

func TestAsyncSubmitStatusWait(t *testing.T) {
	var hits atomic.Int64
	res := &jobs.Result{ID: "job1", Cycles: 99}
	running, _ := json.Marshal(jobs.JobStatus{ID: "job1", State: "running"})
	done, _ := json.Marshal(jobs.JobStatus{ID: "job1", State: "done", Result: res})
	accepted, _ := json.Marshal(jobs.JobStatus{ID: "job1", State: "running"})
	ts := scriptServer(t, []scripted{
		{status: 202, body: string(accepted)},
		{status: 200, body: string(running)},
		{status: 200, body: string(done)},
	}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(2)), WithSeed(1))
	id, err := c.SubmitAsync(context.Background(), jobs.Job{Workload: "VectorAdd"})
	if err != nil || id != "job1" {
		t.Fatalf("SubmitAsync = %q, %v", id, err)
	}
	got, err := c.Wait(context.Background(), id, time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got == nil || got.Cycles != 99 {
		t.Errorf("Wait result = %+v", got)
	}
}

func TestWaitSurfacesFailedJob(t *testing.T) {
	var hits atomic.Int64
	failed, _ := json.Marshal(jobs.JobStatus{ID: "j", State: "failed", Error: "sim blew up"})
	ts := scriptServer(t, []scripted{{status: 200, body: string(failed)}}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(1)))
	_, err := c.Wait(context.Background(), "j", time.Millisecond)
	if err == nil {
		t.Fatal("want failure error")
	}
}

// TestGetPostOneAttempt: the control-plane calls make exactly one
// round trip even on a retriable 503 — their callers count misses
// themselves — decode a refusal into *jobs.APIError, and send Post's
// argument as a JSON body.
func TestGetPostOneAttempt(t *testing.T) {
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{
		{status: 503, header: map[string]string{"Retry-After": "2"}, body: `{"error":"closing","kind":"closed","status":503}`},
		{status: 200, body: `{"status":"ok"}`},
	}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(5)))
	var apiErr *jobs.APIError
	if err := c.Get(context.Background(), "/healthz", nil); !errors.As(err, &apiErr) || apiErr.Kind != "closed" || apiErr.RetryAfterMS != 2000 {
		t.Fatalf("Get on a 503: %v, want the closed APIError with its 2s hint", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("Get made %d round trips on a 503, want 1", hits.Load())
	}
	var v struct{ Status string }
	if err := c.Get(context.Background(), "/healthz", &v); err != nil || v.Status != "ok" {
		t.Fatalf("Get = %v, %+v", err, v)
	}

	var got struct{ Epoch uint64 }
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s with content type %q", r.Method, r.Header.Get("Content-Type"))
		}
		json.NewDecoder(r.Body).Decode(&got)
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(echo.Close)
	if err := New(echo.URL).Post(context.Background(), "/v1/cluster/epoch", map[string]uint64{"epoch": 7}, nil); err != nil || got.Epoch != 7 {
		t.Fatalf("Post = %v, server saw epoch %d, want 7", err, got.Epoch)
	}
}

func TestBackoffDeterministicWithSeed(t *testing.T) {
	a := New("http://x", WithSeed(7), WithPolicy(DefaultPolicy()))
	b := New("http://x", WithSeed(7), WithPolicy(DefaultPolicy()))
	for i := 1; i <= 5; i++ {
		if da, db := a.backoff(i, 0), b.backoff(i, 0); da != db {
			t.Fatalf("attempt %d: %v != %v", i, da, db)
		}
	}
	// Backoff caps never exceed MaxDelay even at deep attempts.
	c := New("http://x", WithSeed(7), WithPolicy(RetryPolicy{MaxAttempts: 64, BaseDelay: time.Second, MaxDelay: 2 * time.Second}))
	for i := 1; i <= 64; i++ {
		if d := c.backoff(i, 0); d > 2*time.Second {
			t.Fatalf("attempt %d: backoff %v exceeds MaxDelay", i, d)
		}
	}
}

func TestHealthz(t *testing.T) {
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{{status: 200, body: `{"status":"degraded","reason":"x"}`}}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(1)))
	got, err := c.Healthz(context.Background())
	if err != nil || got != "degraded" {
		t.Errorf("Healthz = %q, %v", got, err)
	}
}

func TestTenantHeaderOnEveryRequest(t *testing.T) {
	var got atomic.Value
	res, _ := json.Marshal(jobs.Result{ID: "abc"})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(jobs.TenantHeader))
		w.Header().Set("Content-Type", "application/json")
		w.Write(res)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithTenant("gold"), WithPolicy(fastPolicy(1)))
	if _, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatal(err)
	}
	if tn, _ := got.Load().(string); tn != "gold" {
		t.Errorf("submit sent tenant %q, want gold", tn)
	}
	if _, err := c.Status(context.Background(), "abc"); err != nil {
		t.Fatal(err)
	}
	if tn, _ := got.Load().(string); tn != "gold" {
		t.Errorf("status sent tenant %q, want gold", tn)
	}
}

func TestTenantFromEnv(t *testing.T) {
	t.Setenv(EnvTenant, "env-team")
	var got atomic.Value
	res, _ := json.Marshal(jobs.Result{ID: "abc"})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(jobs.TenantHeader))
		w.Header().Set("Content-Type", "application/json")
		w.Write(res)
	}))
	t.Cleanup(ts.Close)

	// Env supplies the default; an explicit option overrides it.
	c := New(ts.URL, WithPolicy(fastPolicy(1)))
	if _, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatal(err)
	}
	if tn, _ := got.Load().(string); tn != "env-team" {
		t.Errorf("env default: sent tenant %q, want env-team", tn)
	}
	c = New(ts.URL, WithTenant("explicit"), WithPolicy(fastPolicy(1)))
	if _, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatal(err)
	}
	if tn, _ := got.Load().(string); tn != "explicit" {
		t.Errorf("option override: sent tenant %q, want explicit", tn)
	}
}

func TestPolicyRefusalFailsFast(t *testing.T) {
	// 403s are policy verdicts (quota or admission), not transient
	// load: the client must not retry them, however many attempts its
	// policy allows.
	cases := []struct {
		name string
		body string
	}{
		{"quota", `{"error":"sched: tenant \"q\" queue full","kind":"quota","status":403,"retry_after_ms":2000}`},
		{"admission", `{"error":"sched: unknown tenant","kind":"admission","status":403}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			ts := scriptServer(t, []scripted{{status: 403, body: tc.body}}, &hits)
			c := New(ts.URL, WithTenant("q"), WithPolicy(fastPolicy(5)), WithSeed(1))
			_, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
			apiErr, ok := err.(*jobs.APIError)
			if !ok {
				t.Fatalf("error type %T, want *jobs.APIError: %v", err, err)
			}
			if apiErr.Status != http.StatusForbidden || apiErr.Kind != tc.name {
				t.Errorf("got status %d kind %q, want 403 %q", apiErr.Status, apiErr.Kind, tc.name)
			}
			if hits.Load() != 1 {
				t.Errorf("server hits = %d, want 1 — 403 is not retryable", hits.Load())
			}
			if m := c.Metrics(); m.Rejections != 1 || m.Retries != 0 {
				t.Errorf("metrics = %+v, want 1 rejection, 0 retries", m)
			}
		})
	}
}

// TestCancelledContextNeverBurnsAnotherAttempt pins the backoff/cancel
// race: when the backoff timer and the context cancellation are ready
// at the same instant, select may pick the timer — the retry loop must
// still notice the dead context before spending another round trip.
// With a zero backoff the timer is always already fired, so without
// the explicit ctx.Err() check this test sees extra server hits.
func TestCancelledContextNeverBurnsAnotherAttempt(t *testing.T) {
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var hits atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			cancel() // the caller gives up while the 429 is in flight
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(429)
			w.Write([]byte(`{"error":"overloaded","kind":"overloaded","status":429}`))
		}))
		c := New(ts.URL, WithPolicy(RetryPolicy{MaxAttempts: 5}))
		_, err := c.Submit(ctx, jobs.Job{Workload: "VectorAdd"})
		ts.Close()
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
		if n := hits.Load(); n != 1 {
			t.Fatalf("iteration %d: %d attempts reached the server after cancellation, want 1", i, n)
		}
	}
}

// TestSubmitAsyncStatusReturnsFullRecord: the 202 body (used by the
// cluster router) carries the whole status, including an immediate
// "done" result on a cache hit.
func TestSubmitAsyncStatusReturnsFullRecord(t *testing.T) {
	res := jobs.Result{ID: "abc", Cycles: 7}
	body, _ := json.Marshal(jobs.JobStatus{ID: "abc", State: "done", Result: &res})
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{{status: 202, body: string(body)}}, &hits)
	c := New(ts.URL, WithPolicy(fastPolicy(2)))
	st, err := c.SubmitAsyncStatus(context.Background(), jobs.Job{Workload: "VectorAdd"})
	if err != nil {
		t.Fatalf("SubmitAsyncStatus: %v", err)
	}
	if st.ID != "abc" || st.State != "done" || st.Result == nil || st.Result.Cycles != 7 {
		t.Errorf("status = %+v, want full done record", st)
	}
}

// TestRetriesExhaustedStructured: exhausting the retry budget returns
// a *RetriesExhaustedError carrying the attempt count, the final HTTP
// status and the server's last Retry-After hint — and still unwraps to
// the last attempt's *jobs.APIError for callers matching on that.
func TestRetriesExhaustedStructured(t *testing.T) {
	var hits atomic.Int64
	ts := scriptServer(t, []scripted{
		{status: 429, body: `{"error":"overloaded","kind":"overloaded","status":429,"retry_after_ms":40}`},
	}, &hits)
	c := New(ts.URL, WithPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}), WithSeed(1))
	_, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	var ex *RetriesExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error type %T, want *RetriesExhaustedError: %v", err, err)
	}
	if ex.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", ex.Attempts)
	}
	if ex.LastStatus != 429 {
		t.Errorf("LastStatus = %d, want 429", ex.LastStatus)
	}
	if ex.RetryAfter != 40*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 40ms", ex.RetryAfter)
	}
	var apiErr *jobs.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("exhaustion does not unwrap to the last APIError: %v", err)
	}
}

// TestRetriesExhaustedNetworkError: a connection that never yields a
// response reports LastStatus 0 and no hint, but still counts attempts.
func TestRetriesExhaustedNetworkError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts.Close() // refused from here on
	c := New(ts.URL, WithPolicy(fastPolicy(2)), WithSeed(1))
	_, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	var ex *RetriesExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ex.Attempts != 2 || ex.LastStatus != 0 || ex.RetryAfter != 0 {
		t.Errorf("got %+v, want 2 attempts, no status, no hint", ex)
	}
}

// TestClientPropagatesTraceHeader: a context carrying a span context
// stamps X-Regvd-Trace on the outgoing request.
func TestClientPropagatesTraceHeader(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(obs.TraceHeader))
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"x","cycles":1}`))
	}))
	defer ts.Close()
	c := New(ts.URL, WithPolicy(fastPolicy(1)))
	ctx := obs.ContextWithSpan(context.Background(), obs.SpanContext{TraceID: "deadbeef", SpanID: "beef"})
	if _, err := c.Submit(ctx, jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got.Load() != "deadbeef/beef" {
		t.Errorf("trace header = %q, want deadbeef/beef", got.Load())
	}
}

// TestSubmitBytesReturnsBodyWhole: SubmitBytes hands back the service's
// answer byte for byte, of a known length or not, and refuses one past
// the 16 MiB bound instead of handing on a cut copy.
func TestSubmitBytesReturnsBodyWhole(t *testing.T) {
	const body = "{\n  \"kernel\": \"k\"\n}\n"
	var size atomic.Int64 // bytes of a chunked answer; 0 = the small body
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n := size.Load(); n > 0 {
			w.Write(bytes.Repeat([]byte(" "), int(n)))
			return
		}
		w.Write([]byte(body))
	}))
	defer ts.Close()
	c := New(ts.URL, WithPolicy(fastPolicy(1)), WithTenant(""))
	got, err := c.SubmitBytes(context.Background(), jobs.Job{Workload: "VectorAdd"})
	if err != nil || string(got) != body {
		t.Fatalf("SubmitBytes = %q, %v; want %q", got, err, body)
	}
	size.Store(maxResponse)
	if got, err := c.SubmitBytes(context.Background(), jobs.Job{Workload: "VectorAdd"}); err != nil || len(got) != maxResponse {
		t.Fatalf("a body at the bound: %d bytes, %v", len(got), err)
	}
	size.Store(maxResponse + 1)
	if got, err := c.SubmitBytes(context.Background(), jobs.Job{Workload: "VectorAdd"}); err == nil {
		t.Fatalf("a body past the bound came back as %d bytes, want an error", len(got))
	}
}

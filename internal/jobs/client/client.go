// Package client is the retrying HTTP client for the regvd job
// service. It speaks the internal/jobs JSON surface and turns the
// service's failure contract into automatic recovery: transient
// failures (shed 429s, shutdown 503s, contained-panic 500s, network
// errors) are retried with exponential backoff and full jitter,
// honoring the server's Retry-After hint as a floor. Retrying a
// submission is always safe because jobs are content-addressed and
// idempotent — the same spec maps to the same ID and the same cached
// result no matter how many times it arrives.
//
// Every request carries the client's tenant (WithTenant, or the
// REGVD_TENANT environment) in the X-Regvd-Tenant header, so the
// service schedules it under the right fair-share queue. Per-tenant
// policy refusals — 403 kind "quota" (the tenant's queue is at its
// MaxQueued cap) and "admission" (strict mode or a priority beyond the
// tenant's cap) — are never retried: backing off cannot change a
// policy decision, so the client fails fast and lets the caller decide.
//
// Get and Post reach any other endpoint of a regvd process in one
// attempt over the same request path, for callers that count failures
// themselves (the cluster router's probes and fan-outs).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/obs"
)

// RetryPolicy bounds the retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total request attempts (1 = no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: before attempt n+1 the
	// client sleeps a uniformly random duration in
	// [0, min(MaxDelay, BaseDelay<<n)] (full jitter), never less than
	// the server's Retry-After hint.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep.
	MaxDelay time.Duration
}

// DefaultPolicy is used when no WithPolicy option says otherwise: 5
// attempts, backing off from 100ms up to 5s.
func DefaultPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// EnvTenant names the tenant every request is attributed to when no
// WithTenant option is given.
const EnvTenant = "REGVD_TENANT"

// Metrics is a point-in-time snapshot of client activity.
type Metrics struct {
	// Attempts counts every HTTP request sent; Retries counts those
	// past an operation's first attempt.
	Attempts uint64 `json:"attempts"`
	Retries  uint64 `json:"retries"`
	// Overloads counts 429 responses (shed by admission control).
	Overloads uint64 `json:"overloads"`
	// Rejections counts 403 responses (tenant quota or admission policy
	// — failures retrying cannot fix).
	Rejections uint64 `json:"rejections"`
}

// Client talks to one regvd base URL.
type Client struct {
	base   string
	tenant string
	hc     *http.Client
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	attempts   atomic.Uint64
	retries    atomic.Uint64
	overloads  atomic.Uint64
	rejections atomic.Uint64
}

// Option configures a Client.
type Option func(*Client)

// WithPolicy overrides the retry policy.
func WithPolicy(p RetryPolicy) Option { return func(c *Client) { c.policy = p } }

// WithHTTPClient substitutes the transport (timeouts, proxies, tests).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithSeed makes the jitter deterministic — test use.
func WithSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithTenant attributes every request to the named fair-share tenant
// (overriding the REGVD_TENANT environment). Empty = the service's
// shared "default" queue.
func WithTenant(tenant string) Option { return func(c *Client) { c.tenant = tenant } }

// New returns a client for base ("http://host:port"), defaulting to
// DefaultPolicy, the REGVD_TENANT tenant, and time-seeded jitter.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:   strings.TrimRight(base, "/"),
		tenant: os.Getenv(EnvTenant),
		hc:     &http.Client{},
		policy: DefaultPolicy(),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	if c.policy.MaxAttempts < 1 {
		c.policy.MaxAttempts = 1
	}
	return c
}

// Base returns the base URL the client targets.
func (c *Client) Base() string { return c.base }

// Metrics snapshots the client counters.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Attempts:   c.attempts.Load(),
		Retries:    c.retries.Load(),
		Overloads:  c.overloads.Load(),
		Rejections: c.rejections.Load(),
	}
}

// Submit runs a job synchronously on the service and returns its
// result, retrying transient failures per the policy.
func (c *Client) Submit(ctx context.Context, job jobs.Job) (*jobs.Result, error) {
	data, err := c.SubmitBytes(ctx, job)
	if err != nil {
		return nil, err
	}
	var res jobs.Result
	if err := decode(http.MethodPost, "/v1/jobs", data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SubmitBytes is Submit without the decode: it returns the service's
// answer as it arrived, the result's JSON encoding (a tenant-stamped
// one when job names a tenant).
func (c *Client) SubmitBytes(ctx context.Context, job jobs.Job) ([]byte, error) {
	job.Async = false
	body, err := json.Marshal(job)
	if err != nil {
		return nil, fmt.Errorf("client: encode job: %w", err)
	}
	return c.doHTTP(ctx, http.MethodPost, "/v1/jobs", body)
}

// SubmitAsync registers a job and returns its content-addressed ID.
func (c *Client) SubmitAsync(ctx context.Context, job jobs.Job) (string, error) {
	st, err := c.SubmitAsyncStatus(ctx, job)
	if err != nil {
		return "", err
	}
	return st.ID, nil
}

// SubmitAsyncStatus registers a job and returns the service's full 202
// status record — already "done" with a result when the submission was
// a cache hit, so a hit costs one round trip, not a submit plus a
// status poll.
func (c *Client) SubmitAsyncStatus(ctx context.Context, job jobs.Job) (jobs.JobStatus, error) {
	job.Async = true
	body, err := json.Marshal(job)
	if err != nil {
		return jobs.JobStatus{}, fmt.Errorf("client: encode job: %w", err)
	}
	var st jobs.JobStatus
	if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return jobs.JobStatus{}, err
	}
	if st.ID == "" {
		return jobs.JobStatus{}, fmt.Errorf("client: async submission returned no job ID")
	}
	return st, nil
}

// Status fetches a job's lifecycle record by ID.
func (c *Client) Status(ctx context.Context, id string) (jobs.JobStatus, error) {
	var st jobs.JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait polls a job until it leaves "running" (or ctx ends), returning
// the result of a "done" job and an error for a "failed" one.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*jobs.Result, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "done":
			return st.Result, nil
		case "failed":
			return nil, fmt.Errorf("client: job %s failed: %s", id, st.Error)
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Healthz returns the service liveness status string ("ok" or
// "degraded").
func (c *Client) Healthz(ctx context.Context) (string, error) {
	var v struct {
		Status string `json:"status"`
	}
	if err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &v); err != nil {
		return "", err
	}
	return v.Status, nil
}

// Get fetches path in one attempt and decodes a successful JSON answer
// into out (nil discards the body). It shares Submit's request path —
// the response bound, *jobs.APIError decoding of a refusal, trace
// injection and the transport — but never retries: it serves callers
// that decide for themselves what a failure means, such as a health
// probe that counts consecutive misses or a fan-out that skips a
// silent shard. ctx bounds the call.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.once(ctx, http.MethodGet, path, nil, out)
}

// Post sends in as a JSON body to path in one attempt and decodes a
// successful answer into out (nil discards it), like Get.
func (c *Client) Post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode %s body: %w", path, err)
	}
	return c.once(ctx, http.MethodPost, path, body, out)
}

func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	c.attempts.Add(1)
	data, _, err := c.attempt(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	return decode(method, path, data, out)
}

// doJSON is an HTTP request under the retry loop, decoding the
// successful answer into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	data, err := c.doHTTP(ctx, method, path, body)
	if err != nil {
		return err
	}
	return decode(method, path, data, out)
}

// doHTTP is an HTTP request under the retry loop.
func (c *Client) doHTTP(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.do(ctx, func(ctx context.Context) ([]byte, bool, error) {
		return c.attempt(ctx, method, path, body)
	})
}

// Retry runs the retry loop over attempts that send makes on a
// transport of the caller's own instead of one HTTP request each: the
// policy's backoff and attempt budget, Retry-After floors, fail-fast
// refusals and the client's counters all apply. send returns what the
// service answered, its HTTP status, Retry-After value and body, or an
// error when no answer came, which is retried as a network error is.
// method and path name the call in errors. The cluster router forwards
// submits this way, over one stream per shard.
func (c *Client) Retry(ctx context.Context, method, path string,
	send func(context.Context) (status int, retryAfter string, body []byte, err error)) ([]byte, error) {
	return c.do(ctx, func(ctx context.Context) ([]byte, bool, error) {
		status, retryAfter, body, err := send(ctx)
		if err != nil {
			return nil, true, fmt.Errorf("client: %s %s: %w", method, path, err) // network: retriable
		}
		return c.answer(method, path, status, retryAfter, body)
	})
}

// decode unmarshals a successful answer into out.
func decode(method, path string, data []byte, out any) error {
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// RetriesExhaustedError reports a retry loop that used every attempt
// without a success: how many round trips were spent, the final HTTP
// status, and the server's last Retry-After hint (0 when it gave
// none). Unwrap reaches the last attempt's error, so errors.As still
// finds the underlying *jobs.APIError — callers that matched on it
// before structured exhaustion existed keep working.
type RetriesExhaustedError struct {
	// Attempts is the number of HTTP round trips performed.
	Attempts int
	// LastStatus is the final attempt's HTTP status (0 for a network
	// error that never produced a response).
	LastStatus int
	// RetryAfter is the server's hint from the final attempt, if any.
	RetryAfter time.Duration
	// Last is the final attempt's error.
	Last error
}

func (e *RetriesExhaustedError) Error() string {
	msg := fmt.Sprintf("client: giving up after %d attempts", e.Attempts)
	if e.LastStatus != 0 {
		msg += fmt.Sprintf(" (last: HTTP %d)", e.LastStatus)
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(" (server asked for %s)", e.RetryAfter)
	}
	return msg + ": " + e.Last.Error()
}

func (e *RetriesExhaustedError) Unwrap() error { return e.Last }

// do is the retry loop: it makes up to MaxAttempts attempts, sleeping
// exponential-backoff-with-full-jitter between them and honoring
// Retry-After hints as a floor, and returns the body of the first
// success. try makes one attempt: it returns that body, or its failure
// and whether it is worth retrying. Non-retriable failures (4xx
// validation errors, invariant 500s) return immediately; exhaustion
// returns a *RetriesExhaustedError wrapping the last attempt.
func (c *Client) do(ctx context.Context, try func(context.Context) ([]byte, bool, error)) ([]byte, error) {
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			select {
			case <-time.After(c.backoff(attempt, hint)):
			case <-ctx.Done():
				return nil, fmt.Errorf("client: %w (last attempt: %v)", ctx.Err(), lastErr)
			}
			// When the backoff timer and the cancellation are both ready,
			// select picks arbitrarily — a cancelled caller must not be
			// charged for one more round trip (and its backoff) before
			// hearing the answer it already gave.
			if ctx.Err() != nil {
				return nil, fmt.Errorf("client: %w (last attempt: %v)", ctx.Err(), lastErr)
			}
		}
		c.attempts.Add(1)
		data, retriable, err := try(ctx)
		if err == nil {
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("client: %w (last attempt: %v)", ctx.Err(), err)
		}
		if !retriable {
			return nil, err
		}
		lastErr = err
		hint = retryAfterOf(err)
	}
	ex := &RetriesExhaustedError{Attempts: c.policy.MaxAttempts, RetryAfter: hint, Last: lastErr}
	var apiErr *jobs.APIError
	if errors.As(lastErr, &apiErr) {
		ex.LastStatus = apiErr.Status
	}
	return nil, ex
}

// MaxResponse bounds one response body.
const MaxResponse = 16 << 20

// attempt performs one HTTP round trip and returns the body of a
// success. The bool reports whether a failure is worth retrying.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) ([]byte, bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, false, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set(jobs.TenantHeader, c.tenant)
	}
	// Propagate the caller's trace, if ctx carries one, so a client
	// embedded in an instrumented process joins its request tree.
	obs.InjectHTTP(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("client: %s %s: %w", method, path, err) // network: retriable
	}
	defer resp.Body.Close()
	// A body past the bound is refused, never cut: SubmitBytes hands
	// its caller a whole result or none.
	data, err := jobs.ReadLimited(resp.Body, resp.ContentLength, MaxResponse)
	if err != nil {
		return nil, true, fmt.Errorf("client: read response: %w", err)
	}
	return c.answer(method, path, resp.StatusCode, resp.Header.Get("Retry-After"), data)
}

// answer turns what the service answered into an attempt's outcome:
// the body of a success, or else the *jobs.APIError its body carries
// (its message made up when the body is not one), with the Retry-After
// value as its hint when the body gives none, and whether a retry may
// help.
func (c *Client) answer(method, path string, status int, retryAfter string, data []byte) ([]byte, bool, error) {
	if status < 400 {
		return data, false, nil
	}
	apiErr := &jobs.APIError{Status: status}
	if err := json.Unmarshal(data, apiErr); err != nil || apiErr.Message == "" {
		apiErr.Message = fmt.Sprintf("%s %s: HTTP %d: %s", method, path, status, strings.TrimSpace(string(data)))
	}
	if apiErr.Status == 0 {
		apiErr.Status = status
	}
	if apiErr.RetryAfterMS == 0 {
		if d := parseRetryAfter(retryAfter); d > 0 {
			apiErr.RetryAfterMS = d.Milliseconds()
		}
	}
	if status == http.StatusTooManyRequests {
		c.overloads.Add(1)
	}
	if status == http.StatusForbidden {
		c.rejections.Add(1)
	}
	return nil, retriable(status, apiErr.Kind), apiErr
}

// retriable classifies a service failure. 429 (shed) and 503 (closing
// or proxy) are the service's own "come back later"; 502/504 are
// gateway transients; a 500 of kind "panic" is a contained crash whose
// flight was evicted, so a retry re-simulates cleanly. Everything else
// — validation 400s, tenant-policy 403s (quota/admission: retrying
// cannot change a policy decision), unknown-ID 404s, invariant 500s
// (deterministic: the same kernel trips the same violation) — fails
// fast.
func retriable(status int, kind string) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	case http.StatusInternalServerError:
		return kind == "panic"
	}
	return false
}

// parseRetryAfter reads a Retry-After header value in either form RFC
// 9110 allows: delta-seconds ("15") or an HTTP-date ("Wed, 21 Oct 2015
// 07:28:00 GMT", including the obsolete RFC 850 and asctime layouts
// http.ParseTime accepts). A date in the past clamps to zero, and a
// malformed value returns zero — plain jittered backoff, never a
// parsed-as-0 "retry immediately".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// retryAfterOf extracts a server wait hint from an attempt error.
func retryAfterOf(err error) time.Duration {
	if apiErr, ok := err.(*jobs.APIError); ok && apiErr.RetryAfterMS > 0 {
		return time.Duration(apiErr.RetryAfterMS) * time.Millisecond
	}
	return 0
}

// backoff computes the sleep before the given (1-based) retry attempt:
// full jitter over an exponentially growing cap, floored by the
// server's hint (capped too, so a hostile hint cannot wedge a client).
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	cap := c.policy.BaseDelay << uint(attempt-1)
	if cap > c.policy.MaxDelay || cap <= 0 {
		cap = c.policy.MaxDelay
	}
	var d time.Duration
	if cap > 0 {
		c.mu.Lock()
		d = time.Duration(c.rng.Int63n(int64(cap) + 1))
		c.mu.Unlock()
	}
	if hint > c.policy.MaxDelay {
		hint = c.policy.MaxDelay
	}
	if d < hint {
		d = hint
	}
	return d
}

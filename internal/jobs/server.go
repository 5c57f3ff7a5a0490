package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs/sched"
	"regvirt/internal/obs"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

// TenantHeader names the submitting tenant when the job body does not
// (the body's "tenant" field wins when both are present). Header names
// are case-insensitive; this one is spelled in the canonical form
// net/http puts on the wire, so Header.Get and Set find it without
// building a canonical key first.
const TenantHeader = "X-Regvd-Tenant"

// Server exposes a Pool over HTTP/JSON:
//
//	POST /v1/jobs      submit a Job; sync by default, async with
//	                   {"async":true} (or ?async=1) -> 202 + job ID
//	GET  /v1/jobs/{id} status/result of a submitted job
//	GET  /v1/queues    per-tenant scheduler state and counters
//	GET  /healthz      liveness ("ok", or "degraded" while shedding)
//	GET  /metrics      expvar-style JSON counters
//	GET  /v1/workloads built-in workload names
//
// Submissions name their tenant in the job body ("tenant") or the
// X-Regvd-Tenant header; tenantless requests ride the shared "default"
// queue. Failure contract: overload sheds with 429 plus a Retry-After
// header (jobs are content-addressed, so retrying is always safe),
// tenant policy refusals return 403 (APIError.Kind "quota" for a
// MaxQueued breach — with an honest drain hint — and "admission" for
// strict-mode or priority-cap violations, which must not be retried
// unchanged), contained panics and simulator invariant violations
// return structured 500 bodies (Kind "panic" / "invariant" — the
// latter carrying cycle/SM/warp context), and submissions during
// shutdown return 503.
type Server struct {
	pool *Pool
}

// NewServer wraps a pool.
func NewServer(p *Pool) *Server { return &Server{pool: p} }

// maxBodyBytes bounds a job submission (inline kernels are small).
const maxBodyBytes = 1 << 20

// BodyReadTimeout bounds how long a request body may take to arrive
// once its headers are in, so a client that trickles its body cannot
// hold a connection indefinitely. The listeners' ReadHeaderTimeout
// covers the headers only, and there is no whole-request ReadTimeout
// because a sync submit's response waits for its simulation. Every
// handler that reads a body reads it under this deadline through
// ReadBody; the largest body, a resync's whole journal (at most 64 MiB
// of journal bytes), fits in it at 7 MB/s.
const BodyReadTimeout = 10 * time.Second

// testBodyReadTimeout, when positive, replaces BodyReadTimeout in
// ReadBody (SetBodyReadTimeoutForTest).
var testBodyReadTimeout atomic.Int64

// SetBodyReadTimeoutForTest makes ReadBody apply d instead of
// BodyReadTimeout until restore is called. It exists so tests can
// exercise the deadline without waiting out the production value;
// nothing else calls it.
func SetBodyReadTimeoutForTest(d time.Duration) (restore func()) {
	testBodyReadTimeout.Store(int64(d))
	return func() { testBodyReadTimeout.Store(0) }
}

// bodyReadTimeout is the deadline ReadBody applies.
func bodyReadTimeout() time.Duration {
	if d := testBodyReadTimeout.Load(); d > 0 {
		return time.Duration(d)
	}
	return BodyReadTimeout
}

// maxTrailingBytes bounds what a request body may carry after its JSON
// value (an encoder's newline, some whitespace).
const maxTrailingBytes = 4 << 10

// ReadBody runs read — the handler's decode of r's body — under
// BodyReadTimeout, then reads the rest of the body to EOF under the
// same deadline: a JSON decoder stops at the end of its value, and
// whatever it leaves the server would read before the response with no
// deadline at all. On success it clears the deadline, so what the
// handler does next (a sync submit waits for its simulation) is not cut
// off. On failure the deadline stays, so a body still arriving when it
// passes fails the read with a timeout and the server's drain of the
// rest fails too: the connection closes after the error response.
func ReadBody(w http.ResponseWriter, r *http.Request, read func() error) error {
	rc := http.NewResponseController(w)
	// A writer without deadline support (a test recorder) just reads
	// without one.
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout()))
	if err := read(); err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, io.LimitReader(r.Body, maxTrailingBytes+1))
	if err != nil {
		return err
	}
	if n > maxTrailingBytes {
		return fmt.Errorf("more than %d bytes follow the JSON value", maxTrailingBytes)
	}
	_ = rc.SetReadDeadline(time.Time{})
	return nil
}

// ReadLimited reads a whole body whose declared length is n (-1 when
// unknown) and refuses one longer than limit rather than cut it short.
// A known length is read into one buffer of exactly that size.
func ReadLimited(body io.Reader, n, limit int64) ([]byte, error) {
	if n >= 0 && n <= limit {
		data := make([]byte, n)
		_, err := io.ReadFull(body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err == nil && int64(len(data)) > limit {
		err = fmt.Errorf("body exceeds %d bytes", limit)
	}
	return data, err
}

// diskFullRetrySecs is the Retry-After hint served with disk-full
// 503s: long enough for an operator (or log rotation) to free space,
// short enough that clients re-probe a recovered shard promptly.
const diskFullRetrySecs = 15

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/queues", s.handleQueues)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	return mux
}

// WriteJSON is the JSON responder of every regvd endpoint, shard and
// router alike: indented JSON plus a newline. It marshals before
// touching the response, so a marshal failure can still become a real
// 500 instead of a mislabeled success with a broken body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		WriteRaw(w, http.StatusInternalServerError, fmt.Appendf(nil, "{\"error\":%q}\n", "encode response: "+err.Error()))
		return
	}
	WriteRaw(w, code, append(b, '\n'))
}

// WriteRaw answers with body, JSON that is already encoded (a relayed
// or cached result encoding, trailing newline included).
func WriteRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// WriteDoneStatus answers with the JobStatus of a finished job whose
// result encoding is res (Result.JSON's bytes): byte for byte what
// WriteJSON writes for a JobStatus holding the decoded result, without
// decoding it.
func WriteDoneStatus(w http.ResponseWriter, code int, id string, res []byte) {
	WriteJSON(w, code, struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}{id, "done", res})
}

// WriteError answers with an *APIError body carrying the formatted
// message and the status code.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, &APIError{Message: fmt.Sprintf(format, args...), Status: code})
}

// writeSubmitError maps a Submit/SubmitAsync failure onto the HTTP
// failure contract.
func writeSubmitError(w http.ResponseWriter, err error) {
	var (
		ov *OverloadError
		qe *sched.QuotaError
		ae *sched.AdmissionError
		pe *PanicError
		ie *sim.InvariantError
		de *DiskFullError
		ke *KernelError
	)
	switch {
	case errors.As(err, &ke):
		// An invalid job that only the assembler could tell apart: the
		// same 400 an invalid spec gets before it is queued.
		WriteError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &ov):
		secs := int(math.Ceil(ov.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, http.StatusTooManyRequests, &APIError{
			Message:      err.Error(),
			Kind:         "overloaded",
			Status:       http.StatusTooManyRequests,
			RetryAfterMS: ov.RetryAfter.Milliseconds(),
		})
	case errors.As(err, &qe):
		// Policy, not capacity: the *tenant* is full, however idle the
		// service. 403 so generic retry loops fail fast; the body still
		// carries an honest drain estimate for callers that choose to
		// come back.
		secs := int(math.Ceil(float64(qe.RetryAfter) / 1000))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, http.StatusForbidden, &APIError{
			Message:      err.Error(),
			Kind:         "quota",
			Status:       http.StatusForbidden,
			RetryAfterMS: qe.RetryAfter,
		})
	case errors.As(err, &ae):
		WriteJSON(w, http.StatusForbidden, &APIError{
			Message: err.Error(),
			Kind:    "admission",
			Status:  http.StatusForbidden,
		})
	case errors.As(err, &pe):
		WriteJSON(w, http.StatusInternalServerError, &APIError{
			Message: err.Error(),
			Kind:    "panic",
			Status:  http.StatusInternalServerError,
		})
	case errors.As(err, &ie):
		WriteJSON(w, http.StatusInternalServerError, &APIError{
			Message:   err.Error(),
			Kind:      "invariant",
			Status:    http.StatusInternalServerError,
			Invariant: ie,
		})
	case errors.As(err, &de):
		// The disk is full: the daemon is read-only for new work, but
		// status, cached results and metrics keep serving. 503 +
		// Retry-After so clients back off (ideally onto another shard)
		// instead of treating a full disk as a job failure.
		w.Header().Set("Retry-After", strconv.Itoa(diskFullRetrySecs))
		WriteJSON(w, http.StatusServiceUnavailable, &APIError{
			Message:      err.Error(),
			Kind:         "disk_full",
			Status:       http.StatusServiceUnavailable,
			RetryAfterMS: int64(diskFullRetrySecs) * 1000,
		})
	case errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, &APIError{
			Message: err.Error(), Kind: "closed", Status: http.StatusServiceUnavailable,
		})
	case errors.Is(err, context.DeadlineExceeded):
		WriteJSON(w, http.StatusGatewayTimeout, &APIError{
			Message: fmt.Sprintf("job deadline exceeded: %v", err),
			Kind:    "timeout", Status: http.StatusGatewayTimeout,
		})
	case errors.Is(err, context.Canceled):
		WriteJSON(w, http.StatusRequestTimeout, &APIError{
			Message: fmt.Sprintf("job cancelled: %v", err),
			Kind:    "cancelled", Status: http.StatusRequestTimeout,
		})
	default:
		WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// ReadJob reads a POST /v1/jobs body: the JSON job (unknown fields
// refused, under ReadBody's deadline), the X-Regvd-Tenant header
// naming a tenant the body does not, and ?async=1 setting Async. It
// answers a malformed or invalid job with 400 itself and returns
// false. The shard and the cluster router both read submissions
// through it, so they refuse a bad one with the same bytes.
func ReadJob(w http.ResponseWriter, r *http.Request) (Job, bool) {
	var job Job
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := ReadBody(w, r, func() error { return dec.Decode(&job) }); err != nil {
		WriteError(w, http.StatusBadRequest, "bad job body: %v", err)
		return job, false
	}
	if job.Tenant == "" {
		job.Tenant = r.Header.Get(TenantHeader)
	}
	if err := job.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return job, false
	}
	job.Async = job.Async || QueryValue(r.URL.RawQuery, "async") == "1"
	return job, true
}

// QueryValue returns the first value of key in a raw URL query, as
// url.Values.Get of the request's parsed query would, without building
// the map: pairs split on '&', a pair holding ';' or failing to
// unescape is skipped, and key and value are unescaped.
func QueryValue(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	job, ok := ReadJob(w, r)
	if !ok {
		return
	}
	// Join the caller's trace (X-Regvd-Trace) or mint a fresh one, and
	// echo the trace ID on the response so the client can fetch the
	// stitched trace from GET /v1/trace/{id} afterwards.
	ctx := obs.ExtractHTTP(r.Context(), r.Header)
	ctx = obs.WithTenant(ctx, job.Tenant)
	ctx, hsp := s.pool.Tracer().Start(ctx, "http.submit")
	defer hsp.End()
	hsp.SetTenant(job.Tenant)
	if sc := hsp.Context(); sc.TraceID != "" {
		w.Header().Set(obs.TraceHeader, sc.HeaderValue())
	}
	if job.Async {
		st, err := s.pool.submitAsync(job)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		if job.Tenant != "" && st.Result != nil {
			r2 := *st.Result
			r2.Tenant = job.Tenant
			st.Result = &r2
		}
		WriteJSON(w, http.StatusAccepted, st)
		return
	}
	res, err := s.pool.Submit(ctx, job)
	if err != nil {
		hsp.SetError(err)
		writeSubmitError(w, err)
		return
	}
	// Requests that name a tenant get it echoed on a per-response copy
	// only: the cached Result stays tenantless, so identical jobs from
	// different tenants (and tenantless legacy clients) share one
	// byte-identical encoding.
	if job.Tenant != "" {
		r2 := *res
		r2.Tenant = job.Tenant
		res = &r2
	}
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.pool.Status(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleQueues(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.pool.Queues())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.pool.Overloaded() {
		WriteJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"reason": "load shedding: job queue at shed depth",
		})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(PromMetrics(s.pool))
		return
	}
	WriteJSON(w, http.StatusOK, s.pool.Metrics())
}

// TraceResponse is the GET /v1/trace/{id} body.
type TraceResponse struct {
	TraceID string           `json:"trace_id"`
	Spans   []obs.SpanRecord `json:"spans"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.pool.Tracer()
	if tr == nil {
		WriteError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	id := r.PathValue("id")
	WriteTrace(w, r, id, tr.Trace(id))
}

// WriteTrace answers GET /v1/trace/{id} with one trace's spans, as JSON
// span records or (?format=chrome) as a Chrome trace_event file
// loadable in chrome://tracing or Perfetto; no spans is a 404. The
// shard and the cluster router both render traces through it.
func WriteTrace(w http.ResponseWriter, r *http.Request, id string, spans []obs.SpanRecord) {
	if len(spans) == 0 {
		WriteError(w, http.StatusNotFound, "unknown trace %q", id)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		b, err := obs.ChromeTrace(spans)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "chrome export: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	WriteJSON(w, http.StatusOK, TraceResponse{TraceID: id, Spans: spans})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string][]string{"workloads": workloads.Names()})
}

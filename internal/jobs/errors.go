package jobs

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"regvirt/internal/sim"
)

// ErrClosed is returned by submissions against a closed (or closing)
// pool. The HTTP layer maps it to 503 so clients back off and retry
// against a healthy replica instead of treating shutdown as a bug.
var ErrClosed = errors.New("jobs: pool is closed")

// PanicError is a panic recovered by the containment layer — a pool
// worker, Execute, or the singleflight fill path — converted into an
// ordinary error so one faulting simulation cannot take down the
// daemon. The failed flight is evicted (failures are never cached), so
// a retry re-simulates cleanly.
type PanicError struct {
	// Val is the value the panic was raised with.
	Val any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("jobs: recovered panic: %v", e.Val)
}

// toPanicError wraps a recovered value, preserving an already-wrapped
// PanicError so nested containment layers do not stack.
func toPanicError(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Val: v, Stack: string(debug.Stack())}
}

// OverloadError is returned when admission control sheds a submission
// instead of letting it wait unboundedly: the task queue is at the
// shed depth, or the async registry is full of running jobs. The HTTP
// layer maps it to 429 with a Retry-After header; jobs are
// content-addressed and idempotent, so retrying after the hint is
// always safe.
type OverloadError struct {
	// Tenant is the fair-share queue the shed submission belonged to.
	Tenant string
	// QueueDepth is the queued-task count observed at shed time.
	QueueDepth int
	// RetryAfter is the server's estimate of when capacity frees up for
	// this tenant: its own queue depth over its weighted share of the
	// workers — a quiet tenant shed during another tenant's flood gets
	// a short, honest hint.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("jobs: overloaded (tenant %s, queue depth %d), retry after %s", e.Tenant, e.QueueDepth, e.RetryAfter)
}

// DiskFullError is returned by the durability layer when a journal
// append or result persist fails with ENOSPC. It is transient by
// design: the job is not marked failed (content-addressed retries are
// idempotent), and the HTTP layer maps it to 503 + Retry-After so the
// daemon degrades to read-only — cached results, status, and metrics
// keep serving while new work is refused until space frees up.
type DiskFullError struct {
	// Op names the write that hit ENOSPC ("journal append", "result
	// persist", "checkpoint persist").
	Op string
	// Err is the underlying filesystem error.
	Err error
}

func (e *DiskFullError) Error() string {
	return fmt.Sprintf("jobs: disk full during %s: %v", e.Op, e.Err)
}

func (e *DiskFullError) Unwrap() error { return e.Err }

// KernelError is an inline kernel that does not assemble or fails the
// program checks: an invalid job that Validate, which only counts
// instructions, let through. The HTTP layer answers it with 400.
type KernelError struct{ Err error }

func (e *KernelError) Error() string { return e.Err.Error() }

func (e *KernelError) Unwrap() error { return e.Err }

// APIError is the structured JSON error body every service failure
// returns (and the error type the client package surfaces).
type APIError struct {
	// Message is the human-readable error ("error" in JSON).
	Message string `json:"error"`
	// Kind classifies machine-actionable failures: "overloaded" (429,
	// retry after the hint), "quota" (403, the tenant is at its
	// configured MaxQueued — non-retryable as submitted, though the
	// body carries an honest drain hint), "admission" (403, policy:
	// unknown tenant under -strict-tenants or priority beyond the
	// tenant's cap — never retry unchanged), "panic" (500, transient —
	// safe to retry), "invariant" (500, deterministic simulator
	// invariant violation), "timeout", "cancelled", "closed",
	// "disk_full" (503, the shard's disk is full and it is serving
	// read-only — retry after the hint, ideally elsewhere), "fenced"
	// (503, the shard lost ownership of its keyspace to a newer epoch
	// and refuses writes until it rejoins — retry through the router).
	// Empty for plain errors.
	Kind string `json:"kind,omitempty"`
	// Status is the HTTP status code the error was served with.
	Status int `json:"status,omitempty"`
	// RetryAfterMS mirrors the Retry-After header for JSON-only clients.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Invariant carries the cycle/SM/warp context of an "invariant"
	// failure.
	Invariant *sim.InvariantError `json:"invariant,omitempty"`
}

func (e *APIError) Error() string { return e.Message }

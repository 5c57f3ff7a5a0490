// Package sched is the multi-tenant fair-share scheduler behind the
// jobs pool: per-tenant queues with stride-scheduled weighted sharing,
// job priorities within each queue, and Volcano-style admission quotas
// (max queued, max running, max priority) validated with typed errors
// so the HTTP layer can answer 429 (capacity, retry later) and 403
// (policy, do not retry) distinctly.
//
// The scheduler replaces a single FIFO channel: workers call Next to
// block for the next dispatchable task, and Release when it finishes.
// Dispatch order interleaves tenants in proportion to their weights
// (stride scheduling: each queue carries a pass value advanced by
// stride = K/weight per dispatch; the minimum pass goes next), so one
// tenant's burst can delay its own backlog but never starve another
// tenant's trickle. Within a tenant, higher Priority goes first and
// equal priorities keep arrival order. Everything is deterministic for
// a serialized caller: ties break on the tenant name.
//
// The scheduler is the one record of queued work: its totals are the
// pool's queue depth and running gauges, its Capacity is the pool's one
// shed limit, and its tenant table, bounded at MaxTenants, carries each
// tenant's outcome counters (Counts) beside its queue. A full table
// makes room for a new tenant by dropping an idle row; dispatch walks
// only the tenants with work, never the whole table.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// TenantConfig is one tenant's share and quota settings. The zero
// value means "weight 1, no quotas".
type TenantConfig struct {
	// Weight is the tenant's share of dispatch bandwidth relative to
	// the other active tenants (minimum 1).
	Weight int `json:"weight"`
	// MaxQueued caps the tenant's queued (not yet dispatched) tasks;
	// enqueueing beyond it fails with *QuotaError (HTTP 403). 0 = no cap.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning caps how many of the tenant's tasks occupy workers at
	// once; excess stays queued while other tenants dispatch. 0 = no cap.
	MaxRunning int `json:"max_running,omitempty"`
	// MaxPriority caps the Priority a tenant may request; higher is
	// rejected with *AdmissionError (HTTP 403). 0 = no cap.
	MaxPriority int `json:"max_priority,omitempty"`
}

// Config configures a Scheduler. The zero value is a permissive
// fair-share scheduler: unknown tenants are admitted with the Default
// (weight-1) config and nothing but Capacity bounds the queues.
type Config struct {
	// Tenants is the explicitly configured tenant set.
	Tenants map[string]TenantConfig
	// Default is the config applied to tenants absent from Tenants
	// (zero value = weight 1, no quotas).
	Default TenantConfig
	// Strict rejects tenants absent from Tenants with *AdmissionError
	// instead of admitting them under Default. The "default" tenant
	// (requests that name no tenant) is always admitted.
	Strict bool
	// Capacity bounds the total queued tasks across all tenants;
	// enqueueing a task that is not exempt at or beyond it fails with
	// ErrSaturated. 0 = unbounded.
	Capacity int
}

// DefaultTenant is the queue for requests that name no tenant.
const DefaultTenant = "default"

// MaxTenants bounds the tenant table in non-strict mode so hostile
// tenant names cannot grow it without bound. A never-seen tenant that
// finds the table full takes the place of a row with nothing queued or
// running that is neither configured nor the default tenant; only when
// there is none does it fail with *AdmissionError.
const MaxTenants = 1024

// strideScale is the stride numerator: stride = strideScale / weight.
// Large enough that weight ratios up to 2^16 stay exact.
const strideScale = 1 << 20

// maxWeight clamps configured weights so strides never truncate to 0.
const maxWeight = 1 << 16

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("sched: scheduler is closed")

// ErrSaturated is returned by Enqueue when the global Capacity is
// reached — backpressure, not policy; callers map it to 429.
var ErrSaturated = errors.New("sched: queue capacity reached")

// AdmissionError is a policy rejection: the task is not allowed as
// specified no matter how long the caller waits (unknown tenant under
// Strict, priority beyond the tenant's cap, tenant table full). The
// HTTP layer maps it to 403 and clients must not retry unchanged.
type AdmissionError struct {
	Tenant string
	Reason string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("sched: tenant %q not admitted: %s", e.Tenant, e.Reason)
}

// QuotaError is a per-tenant quota rejection: the tenant is at its
// MaxQueued limit. The HTTP layer maps it to 403 (kind "quota") so
// clients fail fast instead of backing off forever; RetryAfter, filled
// by the pool from the tenant's own queue depth and weight, is an
// honest hint for callers that choose to come back.
type QuotaError struct {
	Tenant string
	Queued int
	Limit  int
	// RetryAfter is the estimated drain time of the tenant's queue;
	// zero until the pool fills it in.
	RetryAfter int64 // milliseconds; plain int so sched stays time-free
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("sched: tenant %q over quota (%d queued, limit %d)", e.Tenant, e.Queued, e.Limit)
}

// Task is one schedulable unit.
type Task struct {
	// Tenant is the queue the task belongs to (required).
	Tenant string
	// Priority orders tasks within a tenant's queue (higher first;
	// equal priorities keep arrival order).
	Priority int
	// Do is the payload a worker executes.
	Do func()
	// Exempt bypasses admission and quota checks — reserved for work
	// the pool itself re-enqueues (preempted jobs resuming, Exec
	// plumbing) whose slot was already admitted once.
	Exempt bool

	seq uint64
}

// Counts are one tenant's outcome counters. The scheduler keeps them
// on the tenant's row and reports them in Snapshot; the pool bumps them
// without the scheduler's lock, through the row Admit returns.
type Counts struct {
	Submitted, Completed, Failed, Shed, QuotaRejected, Preemptions, Resumes atomic.Uint64
}

// tenantQ is one tenant's row: its queue, its stride state and its
// counters.
type tenantQ struct {
	name   string
	cfg    TenantConfig
	counts Counts

	pass   uint64
	stride uint64

	tasks      taskHeap
	running    int
	dispatched uint64
	busyAt     int // index in Scheduler.busy, -1 while nothing is queued or running
}

// Scheduler is the concurrency-safe multi-queue. See the package doc.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	cfg        Config
	tenants    map[string]*tenantQ
	maxTenants int // MaxTenants; tests shrink it
	// busy holds the tenants with queued or running tasks, in no order:
	// dispatch and Share walk these, not the table. A tenant joins when
	// it gets its first task and leaves when its last one is released.
	busy []*tenantQ

	// queued and running total the tenants' queued and running tasks.
	// They change under mu; Queued and Running read them without it.
	queued, running atomic.Int64

	seq    uint64
	vtime  uint64 // pass of the last dispatched queue (pre-advance)
	closed bool
}

// New builds a scheduler. Configured tenants exist from the start (so
// /v1/queues shows them before traffic arrives); others join on first
// use, bounded by MaxTenants.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg, tenants: map[string]*tenantQ{}, maxTenants: MaxTenants}
	s.cond = sync.NewCond(&s.mu)
	for name, tc := range cfg.Tenants {
		s.tenants[name] = newTenantQ(name, tc)
	}
	if _, ok := s.tenants[DefaultTenant]; !ok {
		s.tenants[DefaultTenant] = newTenantQ(DefaultTenant, cfg.Default)
	}
	return s
}

func newTenantQ(name string, tc TenantConfig) *tenantQ {
	w := tc.Weight
	if w < 1 {
		w = 1
	}
	if w > maxWeight {
		w = maxWeight
	}
	tc.Weight = w
	return &tenantQ{name: name, cfg: tc, stride: strideScale / uint64(w), busyAt: -1}
}

// Admit validates tenant and priority against policy without touching
// any queue — the pool runs it before cache lookup so a disallowed
// request is refused even when its result is already cached. It returns
// the tenant's counters, creating its row if policy allows. A priority
// above the tenant's cap is refused with the row; an unknown tenant
// under Strict, or a new one once the table is full, gets no row.
func (s *Scheduler) Admit(tenant string, priority int) (*Counts, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tn, err := s.admitLocked(tenant, priority)
	if tn == nil {
		return nil, err
	}
	return &tn.counts, err
}

// admitLocked resolves (creating if allowed) the tenant's queue. A
// priority refusal returns the queue with its error.
func (s *Scheduler) admitLocked(tenant string, priority int) (*tenantQ, error) {
	tn, ok := s.tenants[tenant]
	if !ok {
		if s.cfg.Strict && tenant != DefaultTenant {
			return nil, &AdmissionError{Tenant: tenant, Reason: "not in the configured tenant set"}
		}
		if len(s.tenants) >= s.maxTenants && !s.evictIdleLocked() {
			return nil, &AdmissionError{Tenant: tenant, Reason: "tenant table full"}
		}
		tn = newTenantQ(tenant, s.cfg.Default)
		s.tenants[tenant] = tn
	}
	if tn.cfg.MaxPriority > 0 && priority > tn.cfg.MaxPriority {
		return tn, &AdmissionError{
			Tenant: tenant,
			Reason: fmt.Sprintf("priority %d above the tenant cap %d", priority, tn.cfg.MaxPriority),
		}
	}
	return tn, nil
}

// evictIdleLocked drops one row that has nothing queued or running and
// is neither configured nor the default tenant, and reports whether it
// found one. The row's counters go with it: pool-wide totals keep its
// outcomes, and the tenant's own series start again at 0 if it returns.
func (s *Scheduler) evictIdleLocked() bool {
	for name, tn := range s.tenants {
		if _, configured := s.cfg.Tenants[name]; tn.busyAt < 0 && !configured && name != DefaultTenant {
			delete(s.tenants, name)
			return true
		}
	}
	return false
}

// markBusy adds tn to the busy tenants if it is not there.
func (s *Scheduler) markBusy(tn *tenantQ) {
	if tn.busyAt < 0 {
		tn.busyAt = len(s.busy)
		s.busy = append(s.busy, tn)
	}
}

// markIdle removes tn from the busy tenants once it has nothing queued
// or running.
func (s *Scheduler) markIdle(tn *tenantQ) {
	if tn.busyAt < 0 || tn.tasks.Len() > 0 || tn.running > 0 {
		return
	}
	last := len(s.busy) - 1
	s.busy[tn.busyAt] = s.busy[last]
	s.busy[tn.busyAt].busyAt = tn.busyAt
	s.busy[last] = nil
	s.busy = s.busy[:last]
	tn.busyAt = -1
}

// Enqueue admits and queues a task. Typed failures: *AdmissionError
// (policy — 403), *QuotaError (tenant MaxQueued — 403 with a drain
// hint), ErrSaturated (global capacity — 429), ErrClosed.
func (s *Scheduler) Enqueue(t *Task) error {
	if t.Tenant == "" {
		t.Tenant = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tn, err := s.admitLocked(t.Tenant, t.Priority)
	if err != nil {
		if !t.Exempt {
			return err
		}
		if tn == nil { // exempt task for an inadmissible tenant: default queue
			tn = s.tenants[DefaultTenant]
		}
	}
	t.Tenant = tn.name // Release accounts against the queue that ran it
	if !t.Exempt {
		if s.saturatedLocked() {
			return ErrSaturated
		}
		if tn.cfg.MaxQueued > 0 && tn.tasks.Len() >= tn.cfg.MaxQueued {
			return &QuotaError{Tenant: tn.name, Queued: tn.tasks.Len(), Limit: tn.cfg.MaxQueued}
		}
	}
	// A queue going empty→non-empty re-joins at the current virtual
	// time so an idle tenant cannot bank credit and then monopolize.
	if tn.tasks.Len() == 0 && tn.pass < s.vtime {
		tn.pass = s.vtime
	}
	s.seq++
	t.seq = s.seq
	heap.Push(&tn.tasks, t)
	s.markBusy(tn)
	s.queued.Add(1)
	s.cond.Broadcast()
	return nil
}

// Next blocks until a task is dispatchable (or Close has been called
// and every queue is drained, returning ok=false). It accounts the
// task as running against its tenant; the worker must call Release
// when the task finishes.
func (s *Scheduler) Next() (*Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t := s.popLocked(); t != nil {
			return t, true
		}
		if s.closed && s.queued.Load() == 0 {
			return nil, false
		}
		s.cond.Wait()
	}
}

// popLocked dequeues the next dispatchable task, or nil: the first by
// (pass, name) among the tenants with a task queued that may run one.
func (s *Scheduler) popLocked() *Task {
	var best *tenantQ
	for _, tn := range s.busy {
		if tn.tasks.Len() == 0 || !tn.canRunLocked() {
			continue
		}
		if best == nil || tn.pass < best.pass || (tn.pass == best.pass && tn.name < best.name) {
			best = tn
		}
	}
	if best == nil {
		return nil
	}
	t := heap.Pop(&best.tasks).(*Task)
	s.vtime = best.pass
	best.pass += best.stride
	best.running++
	best.dispatched++
	s.queued.Add(-1)
	s.running.Add(1)
	return t
}

func (tn *tenantQ) canRunLocked() bool {
	return tn.cfg.MaxRunning <= 0 || tn.running < tn.cfg.MaxRunning
}

// Release returns a task's worker slot to its tenant. Call exactly
// once per task returned by Next.
func (s *Scheduler) Release(t *Task) {
	s.mu.Lock()
	if tn, ok := s.tenants[t.Tenant]; ok && tn.running > 0 {
		tn.running--
		s.running.Add(-1)
		s.markIdle(tn)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close stops admission. Already-queued tasks keep dispatching until
// the queues drain, after which Next returns ok=false.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Queued is the total queued-task gauge.
func (s *Scheduler) Queued() int { return int(s.queued.Load()) }

// Running is the total gauge of tasks between Next and Release.
func (s *Scheduler) Running() int { return int(s.running.Load()) }

// Saturated reports whether Enqueue refuses tasks that are not exempt
// with ErrSaturated: the queued total has reached Capacity.
func (s *Scheduler) Saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saturatedLocked()
}

func (s *Scheduler) saturatedLocked() bool {
	return s.cfg.Capacity > 0 && s.queued.Load() >= int64(s.cfg.Capacity)
}

// SetCapacity replaces Config.Capacity, so tests can drive saturation
// with a handful of tasks.
func (s *Scheduler) SetCapacity(n int) {
	s.mu.Lock()
	s.cfg.Capacity = n
	s.mu.Unlock()
}

// Share reports a tenant's queued count and its weight share of the
// currently active tenants (tenants with queued or running work, the
// asking tenant included). The pool's Retry-After estimate uses it so
// a quiet tenant shed during another tenant's flood gets an honest,
// short hint instead of one scaled to the global backlog.
func (s *Scheduler) Share(tenant string) (queued int, share float64) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	self := s.tenants[tenant]
	selfWeight := s.cfg.Default.Weight
	if self != nil {
		queued = self.tasks.Len()
		selfWeight = self.cfg.Weight
	}
	if selfWeight < 1 {
		selfWeight = 1
	}
	total := 0
	for _, tn := range s.busy {
		total += tn.cfg.Weight
	}
	if self == nil || self.busyAt < 0 {
		total += selfWeight
	}
	if total <= 0 {
		return queued, 1
	}
	return queued, float64(selfWeight) / float64(total)
}

// QueueStat is one tenant's point-in-time view: its configuration, its
// queue gauges and its outcome counters. It is a row of GET /v1/queues
// and of the /metrics tenant breakdown.
type QueueStat struct {
	Tenant      string `json:"tenant"`
	Weight      int    `json:"weight"`
	MaxQueued   int    `json:"max_queued,omitempty"`
	MaxRunning  int    `json:"max_running,omitempty"`
	MaxPriority int    `json:"max_priority,omitempty"`

	Queued     int64  `json:"queued"`
	Running    int64  `json:"running"`
	Dispatched uint64 `json:"dispatched"`

	Submitted     uint64 `json:"submitted"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Shed          uint64 `json:"shed"`
	QuotaRejected uint64 `json:"quota_rejected"`
	Preemptions   uint64 `json:"preemptions"`
	Resumes       uint64 `json:"resumes"`
}

// Snapshot returns every tenant's stats, sorted by tenant name.
func (s *Scheduler) Snapshot() []QueueStat {
	s.mu.Lock()
	stats := make([]QueueStat, 0, len(s.tenants))
	for _, tn := range s.tenants {
		c := &tn.counts
		stats = append(stats, QueueStat{
			Tenant:        tn.name,
			Weight:        tn.cfg.Weight,
			MaxQueued:     tn.cfg.MaxQueued,
			MaxRunning:    tn.cfg.MaxRunning,
			MaxPriority:   tn.cfg.MaxPriority,
			Queued:        int64(tn.tasks.Len()),
			Running:       int64(tn.running),
			Dispatched:    tn.dispatched,
			Submitted:     c.Submitted.Load(),
			Completed:     c.Completed.Load(),
			Failed:        c.Failed.Load(),
			Shed:          c.Shed.Load(),
			QuotaRejected: c.QuotaRejected.Load(),
			Preemptions:   c.Preemptions.Load(),
			Resumes:       c.Resumes.Load(),
		})
	}
	s.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Tenant < stats[j].Tenant })
	return stats
}

// Strict reports whether unknown tenants are rejected.
func (s *Scheduler) Strict() bool { return s.cfg.Strict }

// taskHeap orders a tenant's tasks: higher Priority first, then
// arrival order (lower seq).
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

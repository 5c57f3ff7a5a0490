package jobs

import (
	"context"
	"errors"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"regvirt/internal/compiler"
	"regvirt/internal/faultinject"
	"regvirt/internal/jobs/sched"
	"regvirt/internal/obs"
)

// Pool executes jobs on a bounded set of worker goroutines with a
// shared content-addressed result cache. Identical jobs submitted
// concurrently run once (singleflight); identical jobs submitted later
// are cache hits. Only unique work occupies a worker: duplicate
// submissions wait on the in-flight computation without holding a
// slot, so a thundering herd of one hot configuration cannot starve
// the queue.
//
// Unique work is dispatched by a multi-tenant fair-share scheduler
// (internal/jobs/sched): each tenant owns a weighted queue, priorities
// order jobs within it, and per-tenant quotas refuse work with typed
// 403 errors before it costs anything. With a durability store armed,
// a higher-priority arrival may checkpoint-preempt the lowest-priority
// running job — the victim snapshots, frees its worker, re-enqueues,
// and later resumes byte-identically from the journaled checkpoint.
//
// The pool is also the fault-containment boundary of the service: a
// panicking simulation is recovered into a *PanicError (the flight is
// evicted, the daemon stays up), and admission control sheds unique
// work with *OverloadError once the queue reaches the shed depth
// instead of blocking callers indefinitely.
type Pool struct {
	workers int
	faults  *faultinject.Injector

	// shedDepth and asyncMax are the ShedDepth and AsyncMax constants;
	// tests shrink them through export_test.go.
	shedDepth int
	asyncMax  int

	// sched replaces the old FIFO task channel: workers block in Next
	// and Release each task when done.
	sched *sched.Scheduler

	wg sync.WaitGroup
	// submitWG tracks submissions past the closed-check; Close waits
	// for it before closing the scheduler, so an in-flight Submit can
	// never enqueue into a closed scheduler.
	submitWG sync.WaitGroup

	results *Cache[string, *Result]
	kernels *Cache[kernelKey, *compiler.Kernel]

	// store, when non-nil, is the durability layer (durable.go):
	// accepted jobs are journaled before acknowledgement, results
	// persist to disk as a second cache tier, and in-flight simulations
	// checkpoint every ckptEvery cycles and on drain.
	store     Recorder
	ckptEvery uint64
	// stopping is closed by Interrupt to begin a graceful drain.
	stopping chan struct{}
	stopOnce sync.Once
	started  time.Time

	mu     sync.Mutex
	status map[string]*JobStatus
	closed bool

	// tcs is the per-tenant counter table (metrics.go), bounded by
	// maxTrackedTenants.
	tmu sync.Mutex
	tcs map[string]*tenantCounters

	// execs tracks running durable simulations for victim selection.
	execMu  sync.Mutex
	execs   map[*execution]struct{}
	execSeq uint64

	// tracer records request spans (admission, queue wait, cache and
	// disk lookups, simulation); nil disables tracing at zero cost. log
	// is never nil — it defaults to obs.Nop().
	tracer *obs.Tracer
	log    *slog.Logger

	m metrics
}

// Admission limits of every pool.
const (
	// QueueCap bounds how many tasks may wait unpicked (the scheduler's
	// Capacity); beyond it the scheduler refuses with ErrSaturated,
	// which surfaces as an *OverloadError (429) — the backpressure the
	// HTTP layer propagates.
	QueueCap = 1024
	// ShedDepth is the queued-task count at which unique submissions
	// are shed with *OverloadError instead of waiting. It sheds before
	// the queue saturates, leaving headroom so Exec and
	// already-admitted work still enqueue.
	ShedDepth = QueueCap * 3 / 4
	// AsyncTTL is how long finished async job records stay addressable
	// in the registry (Status falls through to the result cache, then
	// the store, after eviction).
	AsyncTTL = 10 * time.Minute
	// AsyncMax bounds the async registry in a long-lived daemon.
	AsyncMax = 4096
)

// Options configures a pool. The zero value of every field means "the
// default", mirroring Job's convention.
type Options struct {
	// Workers is the worker-goroutine count (minimum 1).
	Workers int
	// Sched configures the multi-tenant scheduler: the tenant table
	// with weights and quotas, strict admission. Its Capacity is
	// ignored: the pool always runs the scheduler at QueueCap.
	Sched sched.Config
	// Faults arms fault injection at the jobs/sim sites (nil = off;
	// see internal/faultinject). Never set it in production configs.
	Faults *faultinject.Injector
	// Store arms the durability layer (nil = in-memory only): accepted
	// jobs are journaled before acknowledgement, results persist across
	// restarts, and unfinished jobs checkpoint and resume. It also arms
	// checkpoint preemption, which needs somewhere durable for the
	// victim's checkpoint. See internal/jobs/store for the on-disk
	// format.
	Store Recorder
	// CheckpointEvery is the simulated-cycle interval between durable
	// checkpoints of in-flight jobs (0 = only cancellation checkpoints,
	// i.e. drain and preemption; meaningful only with Store set).
	CheckpointEvery uint64
	// Tracer, when non-nil, records a span tree per submission
	// (admission, queue wait, cache/disk lookup, simulation) into its
	// ring buffer, served by the server's GET /v1/trace/{id}. Nil turns
	// tracing off; instrumented paths pay one nil-check.
	Tracer *obs.Tracer
	// Logger receives the pool's structured log lines (job accepted,
	// completed, failed, preempted), each stamped with the trace ID,
	// tenant and job ID from the request context. Nil discards them.
	Logger *slog.Logger
}

// NewPool starts workers goroutines (minimum 1) with default limits.
func NewPool(workers int) *Pool {
	return NewPoolWith(Options{Workers: workers})
}

// NewPoolWith starts a pool with explicit settings.
func NewPoolWith(opts Options) *Pool {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	scfg := opts.Sched
	scfg.Capacity = QueueCap
	logger := opts.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	p := &Pool{
		workers:   workers,
		shedDepth: ShedDepth,
		asyncMax:  AsyncMax,
		faults:    opts.Faults,
		store:     opts.Store,
		ckptEvery: opts.CheckpointEvery,
		stopping:  make(chan struct{}),
		started:   time.Now(),
		sched:     sched.New(scfg),
		results:   NewCache[string, *Result](),
		kernels:   NewCache[kernelKey, *compiler.Kernel](),
		status:    map[string]*JobStatus{},
		tcs:       map[string]*tenantCounters{},
		execs:     map[*execution]struct{}{},
		tracer:    opts.Tracer,
		log:       logger,
	}
	p.m.lat = obs.NewHistogram(obs.DefLatencyBuckets...)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				task, ok := p.sched.Next()
				if !ok {
					return
				}
				p.m.queued.Add(-1)
				p.runTask(task.Do)
				p.sched.Release(task)
			}
		}()
	}
	return p
}

// Tracer returns the pool's tracer (nil when tracing is off) so the
// HTTP layer can serve GET /v1/trace/{id} and the Prometheus span
// histograms from the same ring the pool records into.
func (p *Pool) Tracer() *obs.Tracer { return p.tracer }

// runTask executes one dispatched task with a last-resort panic
// backstop: task bodies contain their own panics (so their waiters are
// always answered), and anything that still escapes must not kill the
// other workers' host process.
func (p *Pool) runTask(task func()) {
	defer func() {
		if v := recover(); v != nil {
			p.m.panicsRecovered.Add(1)
		}
	}()
	task()
}

// Close stops the workers after in-flight submissions and the queue
// drain. Submit/Exec on a closed pool return ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	// Wait out submissions that passed the closed-check before closing
	// the scheduler they may still be enqueueing into.
	p.submitWG.Wait()
	p.sched.Close()
	p.wg.Wait()
}

// enter registers a submission for graceful shutdown; it fails once
// Close has begun. Callers must defer p.submitWG.Done() on success.
func (p *Pool) enter() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.submitWG.Add(1)
	return nil
}

// admit applies admission policy — the strict tenant set, the tenant
// table bound, per-tenant priority caps — before anything else,
// including the cache lookup, so a disallowed request is refused even
// when its result is already cached. Failures are *sched.AdmissionError
// (403, never retry unchanged).
func (p *Pool) admit(job Job) error {
	if err := p.sched.Admit(job.schedTenant(), job.Priority); err != nil {
		p.m.quotaRejected.Add(1)
		p.tenantCounters(job.schedTenant()).quotaRejected.Add(1)
		return err
	}
	return nil
}

// Submit runs a job synchronously: it validates, applies the job's
// deadline (TimeoutMS, covering queue wait as well as simulation),
// dedups against identical in-flight or completed jobs, and returns
// the shared, immutable result. Failure modes callers should expect:
// *OverloadError (shed — retry after the hint), *sched.QuotaError and
// *sched.AdmissionError (tenant policy — do not retry unchanged),
// *PanicError (contained crash — safe to retry), *sim.InvariantError
// (deterministic simulator bug), ErrClosed, and context errors.
func (p *Pool) Submit(ctx context.Context, job Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	tenant := job.schedTenant()
	// The content address is computed once here and passed down: it
	// names the cache entry, the persisted result, the journal entry
	// and the result's ID.
	key := job.Key()
	// Correlation context first, so the submit span, every child span
	// and every log line below carry the tenant and job ID.
	ctx = obs.WithJobID(obs.WithTenant(ctx, tenant), key)
	ctx, span := p.tracer.Start(ctx, "jobs.submit")
	defer span.End()
	_, asp := p.tracer.Start(ctx, "jobs.admit")
	aerr := p.admit(job)
	asp.SetError(aerr)
	asp.End()
	if aerr != nil {
		span.SetError(aerr)
		p.log.WarnContext(ctx, "job refused at admission", "err", aerr)
		return nil, aerr
	}
	if err := p.enter(); err != nil {
		span.SetError(err)
		return nil, err
	}
	defer p.submitWG.Done()
	tc := p.tenantCounters(tenant)
	p.m.submitted.Add(1)
	tc.submitted.Add(1)
	if job.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	res, outcome, err := p.submitContained(ctx, job, key)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	p.m.lat.Observe(ms / 1000)
	tc.lat.Observe(ms / 1000)
	span.SetAttr("outcome", outcomeLabel(outcome))
	if err != nil {
		p.m.failed.Add(1)
		tc.failed.Add(1)
		span.SetError(err)
		p.log.WarnContext(ctx, "job failed", "outcome", outcomeLabel(outcome), "ms", ms, "err", err)
		return nil, err
	}
	p.m.completed.Add(1)
	tc.completed.Add(1)
	p.log.InfoContext(ctx, "job completed", "outcome", outcomeLabel(outcome), "ms", ms)
	return res, nil
}

// outcomeLabel names a cache outcome for span attributes and logs.
func outcomeLabel(o Outcome) string {
	switch o {
	case Hit:
		return "hit"
	case Deduped:
		return "dedup"
	default:
		return "miss"
	}
}

// submitContained is the Submit body behind the panic barrier: a panic
// escaping the cache layer (e.g. an injected fill fault) becomes a
// *PanicError instead of unwinding into net/http. key is job.Key().
func (p *Pool) submitContained(ctx context.Context, job Job, key string) (res *Result, outcome Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			p.m.panicsRecovered.Add(1)
			res, err = nil, toPanicError(v)
		}
	}()
	res, outcome, err = p.results.Do(ctx, key, func() (*Result, error) {
		// Counted at fill start (not on the Miss outcome) so the
		// submitted == executed+deduped+hits invariant holds even when
		// the fill panics out of Do.
		p.m.executed.Add(1)
		// Second cache tier: a result persisted by an earlier process
		// (or an earlier life of this one) is served from disk without
		// re-simulating.
		if p.store != nil {
			_, lsp := p.tracer.Start(ctx, "store.load")
			r, ok := p.store.LoadResult(key)
			lsp.SetAttr("hit", strconv.FormatBool(ok))
			lsp.End()
			if ok {
				p.m.diskHits.Add(1)
				return r, nil
			}
		}
		if ferr := p.faults.Fire(faultinject.SiteCacheFill); ferr != nil {
			return nil, ferr
		}
		// Journal the admission before any work happens: from here on
		// the job survives a crash (no-op if an async submission of the
		// same job already journaled it).
		if p.store != nil {
			_, jsp := p.tracer.Start(ctx, "journal.accept")
			aerr := p.store.Accept(key, job, false)
			jsp.SetError(aerr)
			jsp.End()
			if aerr != nil {
				return nil, aerr
			}
		}
		return p.runOnWorker(ctx, job, key)
	})
	switch outcome {
	case Hit:
		p.m.cacheHits.Add(1)
	case Deduped:
		p.m.deduped.Add(1)
	}
	return res, outcome, err
}

// errPreempted is the internal signal that a running job was
// checkpoint-interrupted to free its worker for higher-priority work.
// It never escapes the pool: runOnWorker catches it and re-enqueues the
// job, so waiters (and the singleflight flight itself) only ever
// observe the final result.
var errPreempted = errors.New("jobs: preempted for higher-priority work")

// execution is one running durable simulation's preemption handle:
// maybePreempt closes preempt to ask the simulation to checkpoint and
// free its worker.
type execution struct {
	tenant   string
	priority int
	seq      uint64
	preempt  chan struct{}
	once     sync.Once
}

func (e *execution) interrupt() { e.once.Do(func() { close(e.preempt) }) }

func (e *execution) interrupted() bool {
	select {
	case <-e.preempt:
		return true
	default:
		return false
	}
}

func (p *Pool) registerExec(e *execution) {
	if p.store == nil { // preemption needs a durable checkpoint
		return
	}
	p.execMu.Lock()
	p.execSeq++
	e.seq = p.execSeq
	p.execs[e] = struct{}{}
	p.execMu.Unlock()
}

func (p *Pool) unregisterExec(e *execution) {
	if p.store == nil { // preemption needs a durable checkpoint
		return
	}
	p.execMu.Lock()
	delete(p.execs, e)
	p.execMu.Unlock()
}

// maybePreempt runs after a task is enqueued: with every worker busy,
// it interrupts the lowest-priority running job strictly below the
// arriving priority (oldest first on ties, so the victim choice is
// deterministic). The victim checkpoints via CheckpointOnCancel, frees
// its worker, and its dispatch loop re-enqueues it to resume later.
func (p *Pool) maybePreempt(priority int) {
	if p.store == nil { // preemption needs a durable checkpoint
		return
	}
	if p.m.running.Load() < int64(p.workers) {
		return // a worker is (or is about to be) free; no need for violence
	}
	p.execMu.Lock()
	var victim *execution
	for e := range p.execs {
		if e.priority >= priority || e.interrupted() {
			continue
		}
		if victim == nil || e.priority < victim.priority ||
			(e.priority == victim.priority && e.seq < victim.seq) {
			victim = e
		}
	}
	p.execMu.Unlock()
	if victim == nil {
		return
	}
	victim.interrupt()
	p.m.preemptions.Add(1)
	p.tenantCounters(victim.tenant).preemptions.Add(1)
}

// runOnWorker schedules the simulation onto a pool worker and waits.
// The caller's ctx bounds both the queue wait and, via
// sim.Config.Cancel, the simulation itself — an expired job aborts
// within a few thousand simulated cycles instead of wedging a worker.
// Only unique work reaches here (cache hits and dedups are answered
// upstream), so this is also where admission control shelters the
// queue: at or beyond the shed depth, new unique work is refused with
// a retry hint instead of waiting unboundedly. A preempted dispatch
// loops: the job re-enqueues exempt from quotas (its slot was admitted
// once already) and resumes from its journaled checkpoint.
func (p *Pool) runOnWorker(ctx context.Context, job Job, key string) (*Result, error) {
	tenant := job.schedTenant()
	if depth := p.m.queued.Load(); depth >= int64(p.shedDepth) {
		p.m.shed.Add(1)
		p.tenantCounters(tenant).shed.Add(1)
		return nil, &OverloadError{Tenant: tenant, QueueDepth: int(depth), RetryAfter: p.retryAfter(tenant)}
	}
	exempt := false
	for {
		res, err := p.dispatch(ctx, job, key, exempt)
		if !errors.Is(err, errPreempted) {
			return res, err
		}
		exempt = true
		p.m.resumes.Add(1)
		p.tenantCounters(tenant).resumes.Add(1)
	}
}

// dispatch enqueues one attempt at the job and waits for its outcome.
func (p *Pool) dispatch(ctx context.Context, job Job, key string, exempt bool) (*Result, error) {
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	e := &execution{tenant: job.schedTenant(), priority: job.Priority, preempt: make(chan struct{})}
	// The queue-wait span opens before the enqueue and closes when a
	// worker picks the task up — the gap a saturated pool shows up as.
	_, qspan := p.tracer.Start(ctx, "queue.wait")
	task := &sched.Task{
		Tenant:   job.schedTenant(),
		Priority: job.Priority,
		Exempt:   exempt,
		Do: func() {
			qspan.End()
			p.m.running.Add(1)
			defer p.m.running.Add(-1)
			if err := ctx.Err(); err != nil {
				ch <- out{nil, err} // expired while queued: don't simulate
				return
			}
			p.registerExec(e)
			res, err := p.runJobContained(ctx, job, key, e)
			p.unregisterExec(e)
			ch <- out{res, err}
		},
	}
	if err := p.enqueueTask(task); err != nil {
		qspan.SetError(err)
		qspan.End()
		return nil, err
	}
	p.maybePreempt(job.Priority)
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		// The worker observes the same ctx and aborts shortly; the
		// flight fails, is evicted, and later submissions retry.
		return nil, ctx.Err()
	}
}

// enqueueTask hands a task to the scheduler, translating its typed
// refusals: saturation becomes an *OverloadError (429), quota errors
// get their Retry-After hint filled from the tenant's own drain time,
// and a closed scheduler becomes ErrClosed.
func (p *Pool) enqueueTask(task *sched.Task) error {
	err := p.sched.Enqueue(task)
	if err == nil {
		p.m.queued.Add(1)
		return nil
	}
	switch {
	case errors.Is(err, sched.ErrClosed):
		return ErrClosed
	case errors.Is(err, sched.ErrSaturated):
		p.m.shed.Add(1)
		p.tenantCounters(task.Tenant).shed.Add(1)
		return &OverloadError{
			Tenant:     task.Tenant,
			QueueDepth: int(p.m.queued.Load()),
			RetryAfter: p.retryAfter(task.Tenant),
		}
	}
	var qe *sched.QuotaError
	if errors.As(err, &qe) {
		qe.RetryAfter = int64(p.retryAfter(task.Tenant) / time.Millisecond)
	}
	p.m.quotaRejected.Add(1)
	p.tenantCounters(task.Tenant).quotaRejected.Add(1)
	return err
}

// runJobContained executes one job on the worker goroutine with panic
// containment: a crash anywhere below (injected or organic — the sim
// invariants that used to panic now return errors, but defense stays
// in depth) becomes a *PanicError delivered to the submitter, the
// flight is evicted, and the worker survives.
func (p *Pool) runJobContained(ctx context.Context, job Job, key string, e *execution) (res *Result, err error) {
	ctx, span := p.tracer.Start(ctx, "sim.run")
	// Registered before the recover defer (which runs first, LIFO) so a
	// contained panic lands on the span as its *PanicError.
	defer func() {
		span.SetError(err)
		span.End()
	}()
	defer func() {
		if v := recover(); v != nil {
			p.m.panicsRecovered.Add(1)
			res, err = nil, toPanicError(v)
		}
	}()
	if ferr := p.faults.Fire(faultinject.SitePoolTask); ferr != nil {
		return nil, ferr
	}
	if p.store != nil {
		return p.runDurable(ctx, job, key, e)
	}
	return execute(ctx, job, key, p.kernels, p.faults.Hook(), runHooks{})
}

// retryAfter estimates when a shed (or quota-refused) client should
// retry: the tenant's own queue drain time at the observed p50 service
// latency and the tenant's weighted share of the workers, clamped to
// [1s, 30s]. The estimate is deliberately per-tenant — a quiet tenant
// shed during another tenant's flood gets a short, honest hint, while
// the flooding tenant gets one scaled to its own backlog.
func (p *Pool) retryAfter(tenant string) time.Duration {
	queued, share := p.sched.Share(tenant)
	p50 := p.m.lat.Snapshot().Quantile(0.5)
	workers := float64(p.workers) * share
	if workers <= 0 {
		workers = 1
	}
	d := time.Duration(p50 * float64(queued+1) / workers * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Overloaded reports whether the pool is currently shedding; /healthz
// degrades on it.
func (p *Pool) Overloaded() bool {
	return p.m.queued.Load() >= int64(p.shedDepth)
}

// Exec runs an arbitrary function on a pool worker and waits for it —
// the hook cmd/experiments -j uses to bound its figure-level
// parallelism with the same workers that serve jobs. Exec does not
// touch the job counters or caches, but a panicking fn is contained
// and returned as a *PanicError. Exec tasks ride the default tenant's
// queue exempt from quotas and capacity (pool-internal plumbing, not
// client traffic).
func (p *Pool) Exec(ctx context.Context, fn func() error) error {
	if err := p.enter(); err != nil {
		return err
	}
	defer p.submitWG.Done()
	done := make(chan error, 1)
	task := &sched.Task{
		Tenant: sched.DefaultTenant,
		Exempt: true,
		Do: func() {
			defer func() {
				if v := recover(); v != nil {
					p.m.panicsRecovered.Add(1)
					done <- toPanicError(v)
				}
			}()
			done <- fn()
		},
	}
	if err := p.sched.Enqueue(task); err != nil {
		if errors.Is(err, sched.ErrClosed) {
			return ErrClosed
		}
		return err
	}
	p.m.queued.Add(1)
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// JobStatus is the lifecycle record of an asynchronous submission.
type JobStatus struct {
	ID string `json:"id"`
	// State is "running", "done" or "failed" ("done" with a Result).
	State       string    `json:"state"`
	Result      *Result   `json:"result,omitempty"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// SubmitAsync validates and registers the job, starts it in the
// background, and returns its content-addressed ID immediately.
// Submitting an identical job again returns the same ID (and, through
// the cache, the same result) while it is running or done; a *failed*
// record is retried — failures are never cached, so resubmission
// re-simulates, mirroring the sync retry contract. The registry is
// bounded: finished records past the TTL are evicted on insert (their
// results stay addressable through the result cache), and when every
// tracked job is still running at capacity, the submission is shed
// with *OverloadError.
func (p *Pool) SubmitAsync(job Job) (string, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	if err := p.admit(job); err != nil {
		return "", err
	}
	id := job.Key()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return "", ErrClosed
	}
	if st, ok := p.status[id]; ok {
		if st.State != "failed" {
			p.mu.Unlock()
			return id, nil // running or done; idempotent
		}
		st.State, st.Error = "running", ""
		st.SubmittedAt, st.FinishedAt = time.Now(), time.Time{}
		p.mu.Unlock()
		if err := p.acceptDurable(id, job); err != nil {
			p.mu.Lock()
			st.State, st.Error = "failed", err.Error()
			st.FinishedAt = time.Now()
			p.mu.Unlock()
			return "", err
		}
		go p.runAsync(st, job)
		return id, nil
	}
	p.evictAsyncLocked(time.Now())
	if len(p.status) >= p.asyncMax {
		p.mu.Unlock()
		tenant := job.schedTenant()
		p.m.shed.Add(1)
		p.tenantCounters(tenant).shed.Add(1)
		return "", &OverloadError{
			Tenant:     tenant,
			QueueDepth: int(p.m.queued.Load()),
			RetryAfter: p.retryAfter(tenant),
		}
	}
	st := &JobStatus{ID: id, State: "running", SubmittedAt: time.Now()}
	p.status[id] = st
	p.mu.Unlock()
	// The 202 the caller is about to send is a durability promise:
	// journal the acceptance (fsynced) before acknowledging, so the job
	// survives a crash between the response and its execution.
	if err := p.acceptDurable(id, job); err != nil {
		p.mu.Lock()
		delete(p.status, id)
		p.mu.Unlock()
		return "", err
	}
	go p.runAsync(st, job)
	return id, nil
}

// acceptDurable journals an async acceptance when a store is armed.
func (p *Pool) acceptDurable(id string, job Job) error {
	if p.store == nil {
		return nil
	}
	return p.store.Accept(id, job, true)
}

// runAsync executes an asynchronous submission and records its outcome.
func (p *Pool) runAsync(st *JobStatus, job Job) {
	res, err := p.Submit(context.Background(), job)
	p.mu.Lock()
	defer p.mu.Unlock()
	st.FinishedAt = time.Now()
	if err != nil {
		st.State, st.Error = "failed", err.Error()
		return
	}
	st.State, st.Result = "done", res
}

// evictAsyncLocked bounds the async registry (p.mu held): finished
// records older than the TTL go first; if the registry is still at
// capacity, the oldest finished records go next. Running jobs are
// never evicted — when they alone fill the registry, the caller sheds.
func (p *Pool) evictAsyncLocked(now time.Time) {
	for id, st := range p.status {
		if st.State != "running" && now.Sub(st.FinishedAt) > AsyncTTL {
			delete(p.status, id)
			p.m.evicted.Add(1)
		}
	}
	for len(p.status) >= p.asyncMax {
		oldestID := ""
		var oldest time.Time
		for id, st := range p.status {
			if st.State == "running" {
				continue
			}
			if oldestID == "" || st.FinishedAt.Before(oldest) {
				oldestID, oldest = id, st.FinishedAt
			}
		}
		if oldestID == "" {
			return // everything tracked is still running
		}
		delete(p.status, oldestID)
		p.m.evicted.Add(1)
	}
}

// Status looks a job up by ID: first among asynchronous submissions,
// then in the completed-result cache (so synchronously submitted and
// TTL-evicted jobs are addressable too), and finally in the durable
// result store — a job finished by a previous life of the daemon stays
// addressable after a restart. The returned value is a copy.
func (p *Pool) Status(id string) (JobStatus, bool) {
	p.mu.Lock()
	if st, ok := p.status[id]; ok {
		cp := *st
		p.mu.Unlock()
		return cp, true
	}
	p.mu.Unlock()
	if res, ok := p.results.Get(id); ok {
		return JobStatus{ID: id, State: "done", Result: res}, true
	}
	if p.store != nil {
		if res, ok := p.store.LoadResult(id); ok {
			return JobStatus{ID: id, State: "done", Result: res}, true
		}
	}
	return JobStatus{}, false
}

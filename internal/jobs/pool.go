package jobs

import (
	"context"
	"errors"
	"log/slog"
	"strconv"
	"sync"
	"time"

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

	// asyncMax is the AsyncMax constant; tests shrink it.
	asyncMax int

	// sched is the one record of queued work: workers block in Next and
	// Release each task when done, its totals are the queue gauges, its
	// Capacity (ShedDepth) is the shed limit, and its tenant table holds
	// the per-tenant counters.
	sched *sched.Scheduler

	wg sync.WaitGroup
	// submitWG tracks submissions past the closed-check; Close waits
	// for it before closing the scheduler, so an in-flight Submit can
	// never enqueue into a closed scheduler.
	submitWG sync.WaitGroup

	results *Cache[string, *Result]

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

	// mu guards closed and the async bookkeeping: running holds the IDs
	// of async jobs still running, failures the last error of those
	// that failed. Everything else about an async job (its result) is
	// where a sync job's is, in the result cache and the store.
	mu       sync.Mutex
	closed   bool
	running  map[string]struct{}
	failures failureLog

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
	// ShedDepth is the queued-task count at which unique submissions
	// are shed with *OverloadError (429) instead of waiting: the
	// scheduler's Capacity, which it enforces under its own lock, so
	// concurrent submits never overshoot it. Exempt tasks (Exec, a
	// preempted job's resume) still enqueue past it.
	ShedDepth = 768
	// AsyncMax bounds the async jobs running at once (past it an async
	// submission is shed) and the failure records kept for Status.
	AsyncMax = 4096
)

// Options configures a pool. The zero value of every field means "the
// default", mirroring Job's convention.
type Options struct {
	// Workers is the worker-goroutine count (minimum 1).
	Workers int
	// Sched configures the multi-tenant scheduler: the tenant table
	// with weights and quotas, strict admission. Its Capacity is
	// ignored: the pool always runs the scheduler at ShedDepth.
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
	// Logger receives the pool's structured log lines (a resume from
	// checkpoint, a preemption, an undecodable checkpoint, a heal of a
	// corrupt result), each stamped with the trace ID, tenant and job
	// ID from the request context; a submit itself is recorded by its
	// span, not logged. Nil discards them.
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
	scfg.Capacity = ShedDepth
	logger := opts.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	p := &Pool{
		workers:   workers,
		asyncMax:  AsyncMax,
		faults:    opts.Faults,
		store:     opts.Store,
		ckptEvery: opts.CheckpointEvery,
		stopping:  make(chan struct{}),
		started:   time.Now(),
		sched:     sched.New(scfg),
		results:   NewCache[string, *Result](),
		running:   map[string]struct{}{},
		failures:  failureLog{byID: map[string]failure{}},
		execs:     map[*execution]struct{}{},
		tracer:    opts.Tracer,
		log:       logger,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				task, ok := p.sched.Next()
				if !ok {
					return
				}
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
			p.m[cPanicsRecovered].Add(1)
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
// when its result is already cached. It returns the tenant's row in the
// scheduler's table, on whose counters the submission is counted.
// Failures are *sched.AdmissionError (403, never retry unchanged),
// counted pool-wide, and on the row when the tenant has one.
func (p *Pool) admit(job Job) (*sched.Counts, error) {
	row, err := p.sched.Admit(job.schedTenant(), job.Priority)
	if err != nil {
		p.m[cQuotaRejected].Add(1)
		if row != nil {
			row.QuotaRejected.Add(1)
		}
	}
	return row, err
}

// submitSpan names the span that times each Submit from admission to
// its answer. Its histogram is the pool's one latency record: /metrics
// quantiles and the retry hint are read from it.
const submitSpan = "jobs.submit"

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
	ctx, span := p.tracer.Start(ctx, submitSpan)
	defer span.End()
	_, asp := p.tracer.Start(ctx, "jobs.admit")
	row, aerr := p.admit(job)
	asp.SetError(aerr)
	asp.End()
	if aerr != nil {
		span.SetError(aerr)
		return nil, aerr
	}
	if err := p.enter(); err != nil {
		span.SetError(err)
		return nil, err
	}
	defer p.submitWG.Done()
	p.count(cSubmitted, &row.Submitted)
	if job.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, outcome, err := p.submitContained(ctx, job, key, row)
	span.SetAttr("outcome", outcomeLabel(outcome))
	if err != nil {
		p.count(cFailed, &row.Failed)
		span.SetError(err)
		return nil, err
	}
	p.count(cCompleted, &row.Completed)
	return res, nil
}

// outcomeLabel names a cache outcome for the submit span's attribute.
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
// *PanicError instead of unwinding into net/http. key is job.Key(), row
// the tenant's counters.
func (p *Pool) submitContained(ctx context.Context, job Job, key string, row *sched.Counts) (res *Result, outcome Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			p.m[cPanicsRecovered].Add(1)
			res, err = nil, toPanicError(v)
		}
	}()
	// The cache counts the outcome: its misses, dedups and hits are the
	// pool's executed, deduped and cache_hits.
	return p.results.Do(ctx, key, func() (*Result, error) {
		// Second cache tier: a result persisted by an earlier process
		// (or an earlier life of this one) is served from disk without
		// re-simulating.
		if p.store != nil {
			_, lsp := p.tracer.Start(ctx, "store.load")
			r, ok := p.store.LoadResult(key)
			lsp.SetAttr("hit", strconv.FormatBool(ok))
			lsp.End()
			if ok {
				p.m[cDiskHits].Add(1)
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
		return p.runOnWorker(ctx, job, key, row)
	})
}

// errPreempted is the internal signal that a running job was
// checkpoint-interrupted to free its worker for higher-priority work.
// It never escapes the pool: runOnWorker catches it and re-enqueues the
// job, so waiters (and the singleflight flight itself) only ever
// observe the final result.
var errPreempted = errors.New("jobs: preempted for higher-priority work")

// execution is one running durable simulation's preemption handle:
// maybePreempt closes preempt to ask the simulation to checkpoint and
// free its worker, and counts the preemption on row, its tenant's
// counters.
type execution struct {
	row      *sched.Counts
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
// deterministic). The victim's cancelled run writes a final checkpoint,
// frees its worker, and its dispatch loop re-enqueues it to resume
// later.
func (p *Pool) maybePreempt(priority int) {
	if p.store == nil { // preemption needs a durable checkpoint
		return
	}
	if p.sched.Running() < p.workers {
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
	p.count(cPreemptions, &victim.row.Preemptions)
}

// runOnWorker schedules the simulation onto a pool worker and waits.
// The caller's ctx bounds both the queue wait and, via
// sim.Config.Cancel, the simulation itself — an expired job aborts
// within a few thousand simulated cycles instead of wedging a worker.
// Only unique work reaches here (cache hits and dedups are answered
// upstream), so this is also where admission control shelters the
// queue: at the shed depth the scheduler refuses new unique work, which
// gets a retry hint instead of waiting unboundedly. A preempted
// dispatch loops: the job re-enqueues exempt from quotas and capacity
// (its slot was admitted once already) and resumes from its journaled
// checkpoint.
func (p *Pool) runOnWorker(ctx context.Context, job Job, key string, row *sched.Counts) (*Result, error) {
	exempt := false
	for {
		res, err := p.dispatch(ctx, job, key, row, exempt)
		if !errors.Is(err, errPreempted) {
			return res, err
		}
		exempt = true
		p.count(cResumes, &row.Resumes)
	}
}

// dispatch enqueues one attempt at the job and waits for its outcome.
func (p *Pool) dispatch(ctx context.Context, job Job, key string, row *sched.Counts, exempt bool) (*Result, error) {
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	e := &execution{row: row, priority: job.Priority, preempt: make(chan struct{})}
	// The queue-wait span opens before the enqueue and closes when a
	// worker picks the task up — the gap a saturated pool shows up as.
	_, qspan := p.tracer.Start(ctx, "queue.wait")
	task := &sched.Task{
		Tenant:   job.schedTenant(),
		Priority: job.Priority,
		Exempt:   exempt,
		Do: func() {
			qspan.End()
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
	if err := p.enqueueTask(task, row); err != nil {
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
// refusals, which it counts on row, the tenant's counters: saturation
// becomes an *OverloadError (429), quota errors get their Retry-After
// hint filled from the tenant's own drain time, and a closed scheduler
// becomes ErrClosed. Exempt tasks meet neither saturation nor quotas,
// so only ErrClosed can refuse them, and Exec passes no row.
func (p *Pool) enqueueTask(task *sched.Task, row *sched.Counts) error {
	err := p.sched.Enqueue(task)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, sched.ErrClosed):
		return ErrClosed
	case errors.Is(err, sched.ErrSaturated):
		return p.overload(task.Tenant, row)
	}
	var qe *sched.QuotaError
	if errors.As(err, &qe) {
		qe.RetryAfter = int64(p.retryAfter(task.Tenant) / time.Millisecond)
	}
	p.count(cQuotaRejected, &row.QuotaRejected)
	return err
}

// overload counts a shed submission of tenant's, pool-wide and on row,
// the tenant's counters, and returns its *OverloadError (429).
func (p *Pool) overload(tenant string, row *sched.Counts) error {
	p.count(cShed, &row.Shed)
	return &OverloadError{Tenant: tenant, QueueDepth: p.sched.Queued(), RetryAfter: p.retryAfter(tenant)}
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
			p.m[cPanicsRecovered].Add(1)
			res, err = nil, toPanicError(v)
		}
	}()
	if ferr := p.faults.Fire(faultinject.SitePoolTask); ferr != nil {
		return nil, ferr
	}
	if p.store != nil {
		return p.runDurable(ctx, job, key, e)
	}
	return execute(ctx, job, key, p.faults.Hook(), runHooks{})
}

// retryAfter estimates when a shed (or quota-refused) client should
// retry: the tenant's own queue drain time at the observed p50 submit
// latency (the submit span's; none without a tracer) and the tenant's
// weighted share of the workers, clamped to [1s, 30s]. The estimate is
// deliberately per-tenant — a quiet tenant shed during another
// tenant's flood gets a short, honest hint, while the flooding tenant
// gets one scaled to its own backlog.
func (p *Pool) retryAfter(tenant string) time.Duration {
	queued, share := p.sched.Share(tenant)
	p50 := p.tracer.Histograms()[submitSpan].Quantile(0.5)
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
func (p *Pool) Overloaded() bool { return p.sched.Saturated() }

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
					p.m[cPanicsRecovered].Add(1)
					done <- toPanicError(v)
				}
			}()
			done <- fn()
		},
	}
	if err := p.enqueueTask(task, nil); err != nil {
		return err
	}
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
	State  string  `json:"state"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// SubmitAsync validates the job and returns its content-addressed ID
// without waiting for it. An async job is a sync Submit that nobody
// waits for: a job already finished is answered from the result cache
// or the store, as Submit would answer it, and writes nothing; any
// other job is journaled, joins the running set and runs Submit in the
// background. Submitting an identical job again returns the same ID
// while it runs; a failed one is retried, because failures are never
// cached. Past AsyncMax running jobs, the submission is shed with
// *OverloadError.
func (p *Pool) SubmitAsync(job Job) (string, error) {
	st, err := p.submitAsync(job)
	return st.ID, err
}

// submitAsync is SubmitAsync returning the job's status, which the 202
// carries: "done" with the result when the job had already finished,
// "running" otherwise.
func (p *Pool) submitAsync(job Job) (JobStatus, error) {
	if err := job.Validate(); err != nil {
		return JobStatus{}, err
	}
	row, err := p.admit(job)
	if err != nil {
		return JobStatus{}, err
	}
	if err := p.enter(); err != nil {
		return JobStatus{}, err
	}
	defer p.submitWG.Done()
	id := job.Key()
	if res, ok := p.finished(id); ok {
		p.mu.Lock()
		p.failures.drop(id)
		p.mu.Unlock()
		return JobStatus{ID: id, State: "done", Result: res}, nil
	}
	p.mu.Lock()
	if _, ok := p.running[id]; ok {
		p.mu.Unlock()
		return JobStatus{ID: id, State: "running"}, nil
	}
	if len(p.running) >= p.asyncMax {
		p.mu.Unlock()
		return JobStatus{}, p.overload(job.schedTenant(), row)
	}
	p.running[id] = struct{}{}
	p.mu.Unlock()
	// The 202 the caller is about to send is a durability promise:
	// journal the acceptance (fsynced) before acknowledging, so the job
	// survives a crash between the response and its execution.
	if p.store != nil {
		if err := p.store.Accept(id, job, true); err != nil {
			p.mu.Lock()
			delete(p.running, id)
			p.mu.Unlock()
			return JobStatus{}, err
		}
	}
	go p.runAsync(id, job)
	return JobStatus{ID: id, State: "running"}, nil
}

// runAsync runs an async job to its end, then takes it out of the
// running set and records a failure (or clears an earlier one).
func (p *Pool) runAsync(id string, job Job) {
	_, err := p.Submit(context.Background(), job)
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.running, id)
	if err != nil {
		p.failures.put(id, err.Error(), p.asyncMax)
	} else {
		p.failures.drop(id)
	}
}

// finished looks a job's result up where Submit would find it: the
// result cache, then the store.
func (p *Pool) finished(id string) (*Result, bool) {
	if res, ok := p.results.Get(id); ok {
		return res, true
	}
	if p.store != nil {
		return p.store.LoadResult(id)
	}
	return nil, false
}

// Status looks a job up by ID: the running async jobs, the result cache
// and the store, then the failure records, so a synchronously submitted
// job is addressable too, and so is a job finished by a previous life
// of the daemon. A result outranks a failure record: a job that failed
// as an async job and was finished since, by a sync submit or a
// restart, is done, and its record goes. Without a store, a finished
// job the result cache has evicted is unknown. A lookup that finds
// nothing else heals a corrupt stored result (heal).
func (p *Pool) Status(id string) (JobStatus, bool) {
	p.mu.Lock()
	_, running := p.running[id]
	f, failed := p.failures.byID[id]
	p.mu.Unlock()
	if running {
		return JobStatus{ID: id, State: "running"}, true
	}
	if res, ok := p.finished(id); ok {
		if failed {
			p.mu.Lock()
			p.failures.drop(id)
			p.mu.Unlock()
		}
		return JobStatus{ID: id, State: "done", Result: res}, true
	}
	if failed {
		return JobStatus{ID: id, State: "failed", Error: f.msg}, true
	}
	return p.heal(id)
}

// heal answers a status lookup that found no running job, result or
// failure: when the store holds a sealed result for id that fails
// verification but whose spec names id, the job is resubmitted as an
// async job. The repair is admitted, journaled, scheduled, traced and
// counted like any other async job, and its Done rewrites the file. A
// refused resubmit leaves the job unknown, as it was.
func (p *Pool) heal(id string) (JobStatus, bool) {
	if p.store == nil {
		return JobStatus{}, false
	}
	job, ok := p.store.Salvage(id)
	if !ok {
		return JobStatus{}, false
	}
	st, err := p.submitAsync(job)
	if err != nil {
		return JobStatus{}, false
	}
	ctx := obs.WithJobID(obs.WithTenant(context.Background(), job.schedTenant()), id)
	p.log.WarnContext(ctx, "stored result failed verification; re-running its job")
	return st, true
}

// failureLog holds the last error of each async job whose run failed,
// at most limit records (the put argument). Once the ring is full, a
// new record takes the slot after the newest and evicts the record
// that held it, so each put and drop is O(1).
type failureLog struct {
	byID map[string]failure
	ring []string // record IDs by slot; "" for a dropped record
	next int      // the slot a new record takes once the ring is full
}

type failure struct {
	msg  string
	slot int
}

func (l *failureLog) put(id, msg string, limit int) {
	if f, ok := l.byID[id]; ok {
		l.byID[id] = failure{msg, f.slot}
		return
	}
	slot := len(l.ring)
	if slot < limit {
		l.ring = append(l.ring, id)
	} else {
		slot, l.next = l.next, (l.next+1)%len(l.ring)
		delete(l.byID, l.ring[slot])
		l.ring[slot] = id
	}
	l.byID[id] = failure{msg, slot}
}

func (l *failureLog) drop(id string) {
	if f, ok := l.byID[id]; ok {
		l.ring[f.slot] = ""
		delete(l.byID, id)
	}
}

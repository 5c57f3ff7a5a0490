package jobs

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"

	"regvirt/internal/sim"
)

// Recorder is the pool's durability hook, implemented by
// internal/jobs/store. The pool journals every accepted job before
// acknowledging it, persists finished results, and checkpoints
// long-running simulations so a killed daemon resumes instead of
// re-simulating from scratch. A nil Recorder (Options.Store unset)
// keeps the pool fully in-memory.
type Recorder interface {
	// Accept journals an admitted job; it must be durable (fsynced)
	// before returning. Accepting an already-pending ID, or one whose
	// result is already persisted, is a no-op.
	Accept(id string, job Job, async bool) error
	// Done persists the result and closes the job's journal entry.
	Done(id string, res *Result) error
	// Failed records a deterministic failure (one that would repeat on
	// re-execution) so replay does not re-enqueue the job.
	Failed(id, msg string) error
	// LoadResult reads a persisted result — the cache tier behind the
	// in-memory result cache.
	LoadResult(id string) (*Result, bool)
	// SaveCheckpoint atomically replaces the job's checkpoint blob.
	SaveCheckpoint(id string, data []byte) error
	// LoadCheckpoint returns the job's latest checkpoint, if any.
	LoadCheckpoint(id string) ([]byte, bool)
	// Salvage returns the job sealed with id's result when that result
	// fails verification but its spec still hashes to id: the job a
	// status lookup re-runs to heal the file.
	Salvage(id string) (Job, bool)
}

// RecoveredJob is one journal entry reconstructed at startup, in
// acceptance order. State is "pending" (unfinished — re-enqueue),
// "done" (its result is in the store) or "failed" (Err carries the
// recorded deterministic failure).
type RecoveredJob struct {
	ID    string
	Job   Job
	Async bool
	State string
	Err   string
}

// Interrupt begins a graceful drain: every in-flight durable
// simulation is cancelled, which makes it hand its sim.Config.Checkpoint
// hook a final consistent checkpoint before aborting. Call it ahead of
// Close so the drain window is spent checkpointing rather than waiting
// out simulations; a later restart resumes each interrupted job from
// its shutdown checkpoint.
func (p *Pool) Interrupt() {
	p.stopOnce.Do(func() { close(p.stopping) })
}

// isStopping reports whether a graceful drain has begun.
func (p *Pool) isStopping() bool {
	select {
	case <-p.stopping:
		return true
	default:
		return false
	}
}

// Restore re-registers journal-recovered jobs on a fresh pool: failed
// jobs get their failure records back, and pending jobs re-run in the
// background as async jobs (resuming from their latest checkpoint when
// one exists) unless this pool already has their results. Done jobs
// need nothing: Status finds their results in the store. It returns
// the number of re-run jobs.
func (p *Pool) Restore(recovered []RecoveredJob) int {
	resumed := 0
	for _, rj := range recovered {
		p.m[cJournalReplayed].Add(1)
		if rj.State == "pending" {
			if _, ok := p.finished(rj.ID); ok {
				continue // e.g. an earlier adoption of the same shard ran it
			}
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return resumed
		}
		if _, running := p.running[rj.ID]; !running { // else adopted again while it runs
			switch rj.State {
			case "failed":
				p.failures.put(rj.ID, rj.Err, p.asyncMax)
			case "pending":
				p.running[rj.ID] = struct{}{}
				go p.runAsync(rj.ID, rj.Job)
				resumed++
			}
		}
		p.mu.Unlock()
	}
	return resumed
}

// runDurable executes one job under the durability contract: resume
// from the latest checkpoint if one exists, checkpoint periodically
// (and on drain or preemption cancellation), persist the result, and
// journal deterministic failures. Runs on a worker goroutine inside
// runJobContained's panic barrier; id is job.Key(). e, when non-nil, is
// the job's preemption handle: closing it cancels the run the same way
// a drain does, and the resulting cancellation is reported as
// errPreempted so the dispatch loop re-enqueues instead of failing the
// waiters.
func (p *Pool) runDurable(ctx context.Context, job Job, id string, e *execution) (*Result, error) {
	// A drain interrupt or a preemption must reach the simulation as a
	// cancellation so it emits its final checkpoint inside the window.
	parent := ctx
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	finished := make(chan struct{})
	defer close(finished)
	var preempt <-chan struct{}
	if e != nil {
		preempt = e.preempt
	}
	go func() {
		select {
		case <-p.stopping:
			cancel()
		case <-preempt:
			cancel()
		case <-finished:
		}
	}()

	// Checkpoint hooks are always armed with a store: ckptEvery paces
	// the periodic snapshots (0 = none), and the on-cancel snapshot —
	// what Restore and preemption resume from — is unconditional.
	hooks := runHooks{
		every: p.ckptEvery,
		checkpoint: func(ck *sim.Checkpoint) {
			_, sp := p.tracer.Start(ctx, "checkpoint.write")
			defer sp.End()
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
				sp.SetError(err)
				return
			}
			if err := p.store.SaveCheckpoint(id, buf.Bytes()); err == nil {
				p.m[cCheckpointsWritten].Add(1)
			} else {
				sp.SetError(err)
			}
		},
	}
	if data, ok := p.store.LoadCheckpoint(id); ok {
		var ck sim.Checkpoint
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err == nil {
			hooks.resume = &ck
			p.log.InfoContext(ctx, "resuming from checkpoint", "cycle", ck.Cycle)
		} else {
			// Undecodable blob: a miss, like a corrupt envelope. The run
			// starts from cycle 0, and its next checkpoint or its Done
			// replaces or removes the file.
			p.log.WarnContext(ctx, "undecodable checkpoint; running from cycle 0", "err", err)
		}
	}

	res, err := execute(ctx, job, id, p.faults.Hook(), hooks)
	if err != nil {
		if e != nil && e.interrupted() && parent.Err() == nil && !p.isStopping() &&
			(errors.Is(err, sim.ErrCancelled) || errors.Is(err, context.Canceled)) {
			// Preempted, not failed: the final checkpoint is journaled
			// and the job stays pending; the dispatch loop re-enqueues
			// it to resume from that checkpoint.
			p.log.InfoContext(ctx, "job preempted; checkpointed and re-enqueued")
			return nil, errPreempted
		}
		if durableFailure(err) {
			p.store.Failed(id, err.Error())
		}
		// Transient failures (cancellation, drain, timeout) stay pending
		// in the journal: the next start resumes them.
		return nil, err
	}
	_, sp := p.tracer.Start(ctx, "store.done")
	err = p.store.Done(id, res)
	sp.SetError(err)
	sp.End()
	if err == nil {
		p.m[cResultsPersisted].Add(1)
	}
	return res, nil
}

// durableFailure reports whether err is deterministic — re-running the
// same job can only fail the same way, so the journal should record it
// instead of re-enqueueing forever. Cancellation, timeouts, contained
// panics and shedding are all transient: a retry (or a restart) may
// succeed.
func durableFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, sim.ErrCancelled) || errors.Is(err, ErrClosed) {
		return false
	}
	var pe *PanicError
	var oe *OverloadError
	var de *DiskFullError
	if errors.As(err, &pe) || errors.As(err, &oe) || errors.As(err, &de) {
		// Disk-full is transient by definition: the job itself is fine,
		// the disk is not — re-running once space frees up succeeds.
		return false
	}
	return true
}

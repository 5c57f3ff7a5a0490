// Package store is the durability layer behind the jobs pool: a
// write-ahead journal of accepted jobs, a content-addressed result
// store, and per-job simulation checkpoints, all under one data
// directory:
//
//	<dir>/journal.wal      — CRC-framed append-only journal (journal.go)
//	<dir>/results/<id>.json — persisted results, sealed, written in place
//	<dir>/checkpoints/<id>.ckpt — latest gob checkpoint of an unfinished job
//
// The contract regvd's crash-recovery test enforces: once Accept
// returns, the job survives a SIGKILL at any instant — a restart
// replays the journal, re-enqueues everything unfinished (resuming
// from the latest checkpoint when one exists) and serves everything
// finished from the result store, byte-identical to a daemon that was
// never killed.
//
// The journal is a journalFile (journal.go), the type a standby's
// shipped copy of it is built on too.
//
// Crash-safety mechanics: Accept fsyncs its journal frame before
// returning. A result is written in place under the store lock and
// fsynced before Done returns; its envelope's checksum makes a torn
// file a miss, which re-simulates, so no temp file or rename is needed.
// Its directory entry becomes durable no later than the compaction
// that drops its accept, which fsyncs results/ first. Checkpoints are
// written to a temp file, fsynced and renamed into place, and Open
// deletes the temp files a crash left before their rename; journal
// replay truncates to the longest valid prefix, so a torn append loses
// only the torn record, and an append that fails is cut back to the
// last whole frame at once, so no later record follows a torn one;
// compaction rewrites the journal through the same temp-and-rename
// door. *Store satisfies jobs.Recorder.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"regvirt/internal/faultinject"
	"regvirt/internal/integrity"
	"regvirt/internal/jobs"
)

const (
	journalName    = "journal.wal"
	resultsDir     = "results"
	checkpointsDir = "checkpoints"
	// compactBytes is the journal size past which a Done/Failed append
	// triggers compaction. Completed entries dominate a long-lived
	// journal; rewriting just the live accepts caps replay time.
	compactBytes = 1 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

type pendingAccept struct {
	job   jobs.Job
	async bool
}

// Store is the on-disk journal + result + checkpoint store. All
// methods are safe for concurrent use; *Store implements jobs.Recorder.
type Store struct {
	dir string

	faults *faultinject.Injector // nil = no injection (nil receiver is inert)

	mu      sync.Mutex
	j       *journalFile             // journal.wal; its generation bumps per Open and compaction
	sink    Sink                     // journal-shipping sink, nil when shipping is off
	pending map[string]pendingAccept // accepted, neither done nor failed
	order   []string                 // pending IDs in acceptance order
	// ckpts holds every job whose checkpoint file may exist: Open lists
	// checkpoints/, a save adds its job before it writes, and a drop
	// removes it. A job outside it has no file, so its load and its drop
	// touch no disk.
	ckpts  map[string]struct{}
	closed bool
}

// SetFaults arms deterministic fault injection at the store's write
// sites (faultinject.SiteStoreAppend, SiteStorePersist). Call before
// the store is shared across goroutines.
func (s *Store) SetFaults(in *faultinject.Injector) { s.faults = in }

// diskAware converts an ENOSPC-rooted write failure into the typed
// *jobs.DiskFullError the HTTP layer maps to read-only 503s; every
// other error passes through unchanged.
func diskAware(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, syscall.ENOSPC) {
		return &jobs.DiskFullError{Op: op, Err: err}
	}
	return err
}

// Open creates or reopens the data directory, replays the journal
// (truncating any corrupt tail to the longest valid prefix), compacts
// it down to the still-unfinished accepts, and returns every job the
// journal knows about in acceptance order: "failed" entries carry
// their recorded error, "done" entries have their result in the store,
// and "pending" entries are the ones the caller must re-enqueue. The
// result decides between done and pending, not the done frame: a job
// whose sealed result loads is done even if its done frame was lost
// (Done does not fsync it), and a done job whose result file has gone
// missing re-runs. Temp files a crash left in the data directory or in
// checkpoints/ are deleted first, and the checkpoints left are listed.
func Open(dir string) (*Store, []jobs.RecoveredJob, error) {
	for _, d := range []string{dir, filepath.Join(dir, resultsDir), filepath.Join(dir, checkpointsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	for _, d := range []string{dir, filepath.Join(dir, checkpointsDir)} {
		if err := removeTemps(d); err != nil {
			return nil, nil, err
		}
	}
	ckpts, err := listCheckpoints(filepath.Join(dir, checkpointsDir))
	if err != nil {
		return nil, nil, err
	}
	j, recs, err := openJournal(dir, journalName)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, j: j, pending: map[string]pendingAccept{}, ckpts: ckpts}
	recovered := foldJournal(recs)
	for i := range recovered {
		rj := &recovered[i]
		if rj.State != "failed" {
			if _, ok := s.LoadResult(rj.ID); !ok {
				rj.State = "pending"
			} else if rj.State == "pending" {
				rj.State = "done"
				s.dropCheckpointLocked(rj.ID) // as the lost Done did
			}
		}
		if rj.State == "pending" {
			s.pending[rj.ID] = pendingAccept{job: rj.Job, async: rj.Async}
			s.order = append(s.order, rj.ID)
		}
	}
	if err := s.compactLocked(); err != nil {
		s.j.f.Close()
		return nil, nil, err
	}
	return s, recovered, nil
}

// Dir returns the data directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// PendingCount reports how many accepted jobs have no terminal record
// yet (what a crash right now would re-enqueue).
func (s *Store) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close fsyncs and closes the journal. Done fsyncs each result and
// checkpoints are renamed in complete, so Close has nothing else to
// flush.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.j.close()
}

// Accept journals an admitted job and fsyncs before returning — the
// durability point of the whole subsystem. Accepting an ID that is
// already pending is a no-op (an async submission and the cache fill
// both announce the same job), and so is accepting a job whose sealed
// result is already stored: it has finished, so an accept would stay
// open with nothing left to close it. The check runs under the lock
// Done holds, so an accept racing a concurrent Done is either closed by
// it or never written. With a shipping sink armed, the frame is only
// queued under the lock and shipped after it is released: a slow
// standby holds up this accept, not every other append.
func (s *Store) Accept(id string, job jobs.Job, async bool) error {
	if !safeID(id) {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	s.mu.Lock()
	sink, err := s.acceptLocked(id, job, async)
	s.mu.Unlock()
	if sink != nil {
		sink.Ship()
	}
	return err
}

// acceptLocked is Accept under the store lock. It returns the sink to
// ship through when it appended a frame.
func (s *Store) acceptLocked(id string, job jobs.Job, async bool) (Sink, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.pending[id]; ok {
		return nil, nil
	}
	if _, ok := s.LoadResult(id); ok {
		return nil, nil
	}
	if err := s.appendLocked(Record{Op: OpAccept, ID: id, Async: async, Job: &job}, true); err != nil {
		return nil, diskAware("journal append", err)
	}
	s.pending[id] = pendingAccept{job: job, async: async}
	s.order = append(s.order, id)
	return s.sink, nil
}

// Done persists the result (the file is the durable artifact), closes
// the journal entry and drops the job's checkpoint. The result is
// written in place and fsynced under the store lock; Accept, which must
// not see it half-written, takes that lock, and LoadResult and Salvage
// outside it treat a half-written file as the miss it would have been
// a moment earlier. The journal frame is not fsynced: if it is lost,
// the next Open finds the sealed result and counts the job done all
// the same. A crash that loses the result's directory entry leaves its
// accept in the journal, so the job re-runs: compaction, the only
// thing that drops the accept, fsyncs results/ first.
func (s *Store) Done(id string, res *jobs.Result) error {
	if !safeID(id) {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	data := res.JSON()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.faults.Fire(faultinject.SiteStorePersist); err != nil {
		return diskAware("result persist", fmt.Errorf("store: persist result: %w", err))
	}
	// The result is sealed in a checksummed envelope together with the
	// job spec that produced it: a read that later finds the payload
	// rotted can re-run the job from the spec (Salvage; the content
	// address in the filename is the oracle for whether the spec itself
	// is intact).
	var spec []byte
	if pa, ok := s.pending[id]; ok {
		spec, _ = json.Marshal(pa.job)
	}
	if err := writeInPlace(s.resultPath(id), integrity.Seal(data, spec)); err != nil {
		return diskAware("result persist", err)
	}
	if err := s.appendLocked(Record{Op: OpDone, ID: id}, false); err != nil {
		return diskAware("journal append", err)
	}
	delete(s.pending, id)
	s.dropCheckpointLocked(id)
	return s.maybeCompactLocked()
}

// Failed records a deterministic failure so replay does not re-enqueue
// a job that can only fail again. Transient failures (cancellation,
// shutdown, timeouts) must NOT be journaled — leaving them pending is
// what lets a restart resume them.
func (s *Store) Failed(id, msg string) error {
	if !safeID(id) {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.appendLocked(Record{Op: OpFailed, ID: id, Err: msg}, false); err != nil {
		return diskAware("journal append", err)
	}
	delete(s.pending, id)
	s.dropCheckpointLocked(id)
	return s.maybeCompactLocked()
}

// LoadResult reads a persisted result by job ID — the second tier
// behind the in-memory cache. A missing, corrupt (unsealed, torn, or an
// envelope checksum failure) or unparseable file is simply a miss: the
// job re-simulates, and its Done rewrites the file.
func (s *Store) LoadResult(id string) (*jobs.Result, bool) {
	if !safeID(id) {
		return nil, false
	}
	data, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return nil, false
	}
	return decodeResult(data)
}

// decodeResult unwraps and parses a result file's bytes. Split out of
// LoadResult so the corrupt-input fuzzer can hammer it without disk.
func decodeResult(data []byte) (*jobs.Result, bool) {
	env, err := integrity.Open(data)
	if err != nil {
		return nil, false
	}
	var res jobs.Result
	if err := json.Unmarshal(env.Payload, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// SaveCheckpoint atomically replaces the job's checkpoint. data is an
// opaque blob (the pool gob-encodes a sim.Checkpoint); the store only
// files it. The write runs outside the store lock, so a Done or Failed
// may drop the checkpoint while it is under way; the save then removes
// the file it wrote, leaving none that ckpts does not hold.
func (s *Store) SaveCheckpoint(id string, data []byte) error {
	if !safeID(id) {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.ckpts[id] = struct{}{}
	}
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	err := writeAtomic(s.checkpointPath(id), integrity.Seal(data, nil))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, kept := s.ckpts[id]; !kept {
		os.Remove(s.checkpointPath(id)) // dropped under way
	}
	return diskAware("checkpoint persist", err)
}

// LoadCheckpoint returns the job's latest checkpoint, if any. A
// corrupt envelope is a miss — checkpoints are a pure optimization,
// and determinism makes restarting from cycle 0 reach the identical
// result.
func (s *Store) LoadCheckpoint(id string) ([]byte, bool) {
	if !safeID(id) {
		return nil, false
	}
	s.mu.Lock()
	_, saved := s.ckpts[id]
	s.mu.Unlock()
	if !saved {
		return nil, false
	}
	data, err := os.ReadFile(s.checkpointPath(id))
	if err != nil {
		return nil, false
	}
	return decodeCheckpoint(data)
}

// decodeCheckpoint unwraps a checkpoint file's bytes (fuzzed like
// decodeResult). Empty payloads are a miss: a zero-byte checkpoint
// restores nothing.
func decodeCheckpoint(data []byte) ([]byte, bool) {
	if len(data) == 0 {
		return nil, false
	}
	env, err := integrity.Open(data)
	if err != nil || len(env.Payload) == 0 {
		return nil, false
	}
	return env.Payload, true
}

// Salvage returns the job sealed with id's result file when that file
// fails verification but still names the job: its header splits, and
// its spec section decodes to a job whose content address is id. The
// pool re-runs that job to heal the file (Pool.Status). A missing,
// healthy or unsalvageable file returns false. Salvage takes no lock,
// so a lookup of an unknown ID never waits behind an Accept's fsync. A
// read racing Done's in-place write sees a prefix of the new file,
// which never splits; whatever does salvage is trusted only because it
// hashes to id, so at worst a heal is redundant and writes the same
// bytes.
func (s *Store) Salvage(id string) (jobs.Job, bool) {
	if !safeID(id) {
		return jobs.Job{}, false
	}
	data, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return jobs.Job{}, false
	}
	return salvageJob(id, data)
}

// salvageJob is Salvage's decision on a result file's bytes, split out
// so the fuzzer can hold it without disk: a job only when the envelope
// fails to open and its salvaged spec hashes back to id.
func salvageJob(id string, data []byte) (jobs.Job, bool) {
	if _, err := integrity.Open(data); err == nil {
		return jobs.Job{}, false
	}
	_, spec, ok := integrity.Salvage(data)
	var job jobs.Job
	if !ok || json.Unmarshal(spec, &job) != nil || job.Key() != id {
		return jobs.Job{}, false
	}
	return job, true
}

func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, resultsDir, id+".json")
}

func (s *Store) checkpointPath(id string) string {
	return filepath.Join(s.dir, checkpointsDir, id+".ckpt")
}

// dropCheckpointLocked removes the job's checkpoint, if it has one.
func (s *Store) dropCheckpointLocked(id string) {
	if _, saved := s.ckpts[id]; saved {
		delete(s.ckpts, id)
		os.Remove(s.checkpointPath(id))
	}
}

// listCheckpoints returns the jobs dir holds a checkpoint file for.
func listCheckpoints(dir string) (map[string]struct{}, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ckpts := map[string]struct{}{}
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".ckpt"); ok && safeID(id) {
			ckpts[id] = struct{}{}
		}
	}
	return ckpts, nil
}

// appendLocked frames and writes one record as the journal's next
// sequence number; sync makes it durable before returning. With a
// shipping sink armed, the frame is queued for it once it is written.
func (s *Store) appendLocked(rec Record, sync bool) error {
	if err := s.faults.Fire(faultinject.SiteStoreAppend); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	rec.Seq = s.j.seq + 1
	frame, err := frameRecord(rec)
	if err != nil {
		return err
	}
	if err := s.j.append(frame, rec.Seq); err != nil {
		return err
	}
	if sync {
		if err := s.j.sync(); err != nil {
			return err
		}
	}
	if s.sink != nil {
		s.sink.Queue(s.j.gen, frame)
	}
	return nil
}

func (s *Store) maybeCompactLocked() error {
	if s.j.size <= compactBytes {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites the journal to contain only the accepts still
// pending, through a temp file fsynced and renamed over the old
// journal — a crash at any point leaves either the old or the new
// generation, both valid. The rewrite drops the accepts of finished
// jobs, so results/ is fsynced before it: the result files Done wrote
// in place since the last compaction then have durable directory
// entries before the journal stops naming their jobs. The generation
// counter bumps with the rewrite, and an armed shipping sink is told
// so it resyncs the standby onto the new generation.
func (s *Store) compactLocked() error {
	// Drop IDs that left the pending set since their accept.
	live := s.order[:0]
	for _, id := range s.order {
		if _, ok := s.pending[id]; ok {
			live = append(live, id)
		}
	}
	s.order = live

	var buf []byte
	for i, id := range s.order {
		pa := s.pending[id]
		frame, err := frameRecord(Record{Seq: uint64(i + 1), Op: OpAccept, ID: id, Async: pa.async, Job: &pa.job})
		if err != nil {
			return err
		}
		buf = append(buf, frame...)
	}
	syncDir(filepath.Join(s.dir, resultsDir))
	if err := s.j.replace(buf, s.j.gen+1, uint64(len(s.order))); err != nil {
		return err
	}
	if s.sink != nil {
		s.sink.JournalRewritten(s.j.gen)
	}
	return nil
}

// foldJournal replays accept/done/failed records into one entry per
// job, in acceptance order: State "pending", "done" or "failed" (with
// Err). A re-accepted ID (e.g. a failed job retried) goes back to
// pending; terminal records for IDs never accepted are ignored.
func foldJournal(recs []Record) []jobs.RecoveredJob {
	index := map[string]int{}
	var out []jobs.RecoveredJob
	for _, rec := range recs {
		i, ok := index[rec.ID]
		switch {
		case rec.Op == OpAccept && !ok:
			index[rec.ID] = len(out)
			out = append(out, jobs.RecoveredJob{ID: rec.ID, Job: *rec.Job, Async: rec.Async, State: "pending"})
		case rec.Op == OpAccept:
			st := &out[i]
			st.Job, st.Async, st.State, st.Err = *rec.Job, rec.Async || st.Async, "pending", ""
		case rec.Op == OpDone && ok:
			out[i].State = "done"
		case rec.Op == OpFailed && ok:
			out[i].State, out[i].Err = "failed", rec.Err
		}
	}
	return out
}

// readUint reads a decimal sidecar file (the journal generation, a
// fence epoch); absent or unreadable reads as 0.
func readUint(path string) uint64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// writeUint durably replaces a decimal sidecar file.
func writeUint(path string, v uint64) error {
	return writeAtomic(path, []byte(strconv.FormatUint(v, 10)))
}

// tmpPrefix starts the name of every temp file writeAtomic creates.
const tmpPrefix = ".tmp-"

// writeAtomic writes data to path via a temp file in the same
// directory: write, fsync, rename, fsync the directory. Readers see
// the old content or the new, never a prefix. A crash before the rename
// leaves the temp file behind; removeTemps deletes it at the next open.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: rename %s: %w", filepath.Base(path), err)
	}
	syncDir(dir)
	return nil
}

// removeTemps deletes the temp files writeAtomic left in dir. Call it
// before anything writes there: a live writeAtomic's temp file has the
// same name shape.
func removeTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// writeInPlace replaces path's content: create or truncate, write,
// fsync, close. A crash mid-write leaves a torn file, so only content
// that verifies itself on read (a sealed envelope) is written this way,
// and only under the lock its other writers and checked readers hold.
// A new file's directory entry is not fsynced here (see compactLocked).
func writeInPlace(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir makes renames and new entries in dir durable. Failure is
// ignored: some filesystems refuse directory fsync, and the fallback
// behaviour (entries durable at the filesystem's leisure) is the best
// available there. A variable so tests can observe when it runs.
var syncDir = func(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

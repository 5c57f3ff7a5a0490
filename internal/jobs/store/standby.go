package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"regvirt/internal/jobs"
)

// StandbyStore is the receiving half of journal shipping: it files
// journal copies shipped by primary shards so that, when a shard dies,
// its accepted-but-unfinished jobs can be adopted and resumed here.
// One directory per primary:
//
//	<dir>/<shard>/shipped.wal       — the shipped journal (same frame format)
//	<dir>/<shard>/journal.gen       — the shipped generation
//	<dir>/<shard>/checkpoints/<id>.ckpt — shipped checkpoint blobs
//
// Continuity discipline: a frame is appended only when its generation
// matches and its sequence number is exactly last+1. Duplicates (seq
// at or below last) are acknowledged and dropped — shippers retry
// batches after network errors, so replay idempotence is part of the
// contract. Anything else is ErrGap, which tells the shipper to send
// a full snapshot; InstallSnapshot replaces the shard's copy wholesale.
type StandbyStore struct {
	dir string

	mu     sync.Mutex
	shards map[string]*standbyShard
	closed bool
}

type standbyShard struct {
	f       *os.File // shipped.wal, opened for append
	gen     uint64
	lastSeq uint64
	pending int    // pending accepts per the last full replay (status only)
	fence   uint64 // minimum ownership epoch this copy accepts ships from
}

// ErrGap reports a shipped frame that does not extend the standby's
// copy contiguously — a generation change or a skipped sequence
// number. The shipper's answer is a full resync.
var ErrGap = errors.New("store: shipped frame does not extend the standby copy (resync needed)")

const shippedName = "shipped.wal"

// OpenStandby opens (creating if needed) a standby directory and
// reloads every shard copy already on disk, truncating any corrupt
// tail exactly like the primary journal's own replay does.
func OpenStandby(dir string) (*StandbyStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: standby: %w", err)
	}
	ss := &StandbyStore{dir: dir, shards: map[string]*standbyShard{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: standby: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !safeID(e.Name()) {
			continue
		}
		sh, err := ss.loadShard(e.Name())
		if err != nil {
			return nil, err
		}
		ss.shards[e.Name()] = sh
	}
	return ss, nil
}

// loadShard opens one shard's copy: replay the shipped journal,
// truncate the corrupt tail, recover (gen, lastSeq) and open for
// append. Also the "standby restart during resync" path — whatever
// valid prefix the interrupted shipment left is where continuity
// resumes, and the next frame either extends it or forces a resync.
func (ss *StandbyStore) loadShard(shard string) (*standbyShard, error) {
	sdir := filepath.Join(ss.dir, shard)
	for _, d := range []string{sdir, filepath.Join(sdir, checkpointsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: standby: %w", err)
		}
	}
	path := filepath.Join(sdir, shippedName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: standby: read %s: %w", shard, err)
	}
	recs, valid := readJournal(bytes.NewReader(raw))
	if int64(len(raw)) > valid {
		if err := os.Truncate(path, valid); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: standby: truncate %s: %w", shard, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: standby: open %s: %w", shard, err)
	}
	sh := &standbyShard{
		f:       f,
		gen:     readUint(filepath.Join(sdir, genName)),
		pending: countPending(recs),
		fence:   readUint(filepath.Join(sdir, fenceName)),
	}
	if len(recs) > 0 {
		sh.lastSeq = recs[len(recs)-1].Seq
	}
	return sh, nil
}

// fenceName is the sidecar persisting a shard copy's fence epoch, so
// a restarted standby keeps refusing a deposed primary's ships.
const fenceName = "fence.epoch"

// Fence raises (never lowers — the fence only ratchets forward) the
// minimum ownership epoch accepted for the shard's copy, persisting it
// durably before it takes effect. Called on adoption with the router's
// bumped epoch, and on ships that present a legitimately higher epoch.
func (ss *StandbyStore) Fence(shard string, epoch uint64) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ErrClosed
	}
	sh, err := ss.shardLocked(shard)
	if err != nil {
		return err
	}
	if epoch <= sh.fence {
		return nil
	}
	sdir := filepath.Join(ss.dir, shard)
	if err := writeUint(filepath.Join(sdir, fenceName), epoch); err != nil {
		return err
	}
	sh.fence = epoch
	return nil
}

// FenceEpoch returns the shard copy's current fence (0 = unfenced).
func (ss *StandbyStore) FenceEpoch(shard string) uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if sh, ok := ss.shards[shard]; ok {
		return sh.fence
	}
	return 0
}

// shard returns (creating if needed) the shard's state; ss.mu held.
func (ss *StandbyStore) shardLocked(shard string) (*standbyShard, error) {
	if !safeID(shard) {
		return nil, fmt.Errorf("store: standby: invalid shard name %q", shard)
	}
	if sh, ok := ss.shards[shard]; ok {
		return sh, nil
	}
	sh, err := ss.loadShard(shard)
	if err != nil {
		return nil, err
	}
	ss.shards[shard] = sh
	return sh, nil
}

// ApplyFrames appends shipped frames to the shard's copy in order and
// returns how many were newly applied. It fsyncs once at the end, and
// only when the batch applied an accept: an accept is the primary's
// durability promise, and the standby's copy must be as durable before
// the primary acknowledges the job. Done and failed frames are not
// fsynced, as on the primary; losing them in a standby crash is safe,
// because Recover re-runs done jobs anyway, a lost failed record only
// re-runs a job that fails again, and the shortened copy reports a gap
// on the next ship, which resyncs it. A later accept's fsync (or
// Recover's own) covers them. Duplicates are skipped silently; the
// first gap or bad frame stops the batch with ErrGap/ErrBadFrame
// (everything before it is kept — it extended the copy validly).
func (ss *StandbyStore) ApplyFrames(shard string, frames []Frame) (applied int, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return 0, ErrClosed
	}
	sh, err := ss.shardLocked(shard)
	if err != nil {
		return 0, err
	}
	accepts := 0
	for _, f := range frames {
		rec, derr := f.Decode()
		if derr != nil {
			err = derr
			break
		}
		if f.Gen != sh.gen {
			// Bootstrap: an empty copy adopts the first generation it
			// sees, provided the stream starts at its beginning.
			if sh.gen == 0 && sh.lastSeq == 0 && f.Seq == 1 {
				sdir := filepath.Join(ss.dir, shard)
				if werr := writeUint(filepath.Join(sdir, genName), f.Gen); werr != nil {
					err = werr
					break
				}
				sh.gen = f.Gen
			} else {
				err = fmt.Errorf("%w: frame gen %d, have gen %d", ErrGap, f.Gen, sh.gen)
				break
			}
		}
		if f.Seq <= sh.lastSeq {
			continue // duplicate replay: idempotent
		}
		if f.Seq != sh.lastSeq+1 {
			err = fmt.Errorf("%w: frame seq %d, have seq %d", ErrGap, f.Seq, sh.lastSeq)
			break
		}
		if _, werr := sh.f.Write(frameBytes(f.Payload)); werr != nil {
			err = fmt.Errorf("store: standby: append %s: %w", shard, werr)
			break
		}
		sh.lastSeq = f.Seq
		switch rec.Op {
		case OpAccept:
			sh.pending++
			accepts++
		case OpDone, OpFailed:
			if sh.pending > 0 {
				sh.pending--
			}
		}
		applied++
	}
	if accepts > 0 {
		if serr := sh.f.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("store: standby: sync %s: %w", shard, serr)
		}
	}
	return applied, err
}

// InstallSnapshot replaces the shard's copy wholesale with a shipped
// journal export: records re-framed into a fresh shipped.wal, the
// generation sidecar updated, continuity reset to nextSeq-1. This is
// the resync path — after it, ApplyFrames expects seq nextSeq.
func (ss *StandbyStore) InstallSnapshot(shard string, gen uint64, recs []Record, nextSeq uint64) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ErrClosed
	}
	sh, err := ss.shardLocked(shard)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		if !validRecord(rec) {
			return fmt.Errorf("%w: snapshot record for %q", ErrBadFrame, rec.ID)
		}
		frame, err := frameRecord(rec)
		if err != nil {
			return err
		}
		buf.Write(frame)
	}
	sdir := filepath.Join(ss.dir, shard)
	sh.f.Close()
	if err := writeAtomic(filepath.Join(sdir, shippedName), buf.Bytes()); err != nil {
		return err
	}
	if err := writeUint(filepath.Join(sdir, genName), gen); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(sdir, shippedName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: standby: reopen %s: %w", shard, err)
	}
	sh.f = f
	sh.gen = gen
	if nextSeq == 0 {
		nextSeq = 1
	}
	sh.lastSeq = nextSeq - 1
	sh.pending = countPending(recs)
	return nil
}

// SaveCheckpoint files a shipped checkpoint blob for one of the
// shard's jobs.
func (ss *StandbyStore) SaveCheckpoint(shard, id string, data []byte) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ErrClosed
	}
	if _, err := ss.shardLocked(shard); err != nil {
		return err
	}
	if !safeID(id) {
		return fmt.Errorf("store: standby: invalid job id %q", id)
	}
	return writeAtomic(filepath.Join(ss.dir, shard, checkpointsDir, id+".ckpt"), data)
}

// Recover reconstructs the shard's jobs from its shipped copy, in
// acceptance order, plus the shipped checkpoints of unfinished ones.
// "done" entries come back as pending: the result file lives on the
// (dead) primary's disk, and re-running is byte-identical by the
// determinism contract, so adoption re-enqueues them. "failed" entries
// stay failed — the journal promises they fail deterministically.
func (ss *StandbyStore) Recover(shard string) ([]jobs.RecoveredJob, map[string][]byte, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, nil, ErrClosed
	}
	sh, err := ss.shardLocked(shard)
	if err != nil {
		return nil, nil, err
	}
	if err := sh.f.Sync(); err != nil {
		return nil, nil, fmt.Errorf("store: standby: sync %s: %w", shard, err)
	}
	raw, err := os.ReadFile(filepath.Join(ss.dir, shard, shippedName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: standby: read %s: %w", shard, err)
	}
	recs, _ := readJournal(bytes.NewReader(raw))

	recovered := foldJournal(recs)
	ckpts := map[string][]byte{}
	for i := range recovered {
		rj := &recovered[i]
		if rj.State == "done" {
			rj.State = "pending" // result unreachable on the dead primary: re-run
		}
		if rj.State == "pending" {
			if data, err := os.ReadFile(filepath.Join(ss.dir, shard, checkpointsDir, rj.ID+".ckpt")); err == nil && len(data) > 0 {
				ckpts[rj.ID] = data
			}
		}
	}
	return recovered, ckpts, nil
}

// ShardStatus is one shipped copy's point-in-time state.
type ShardStatus struct {
	Shard   string `json:"shard"`
	Gen     uint64 `json:"gen"`
	LastSeq uint64 `json:"last_seq"`
	Pending int    `json:"pending"`
	Fence   uint64 `json:"fence,omitempty"`
}

// State reports (gen, lastSeq) for one shard — what the ship protocol
// acknowledges so the shipper can detect divergence.
func (ss *StandbyStore) State(shard string) (gen, lastSeq uint64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if sh, ok := ss.shards[shard]; ok {
		return sh.gen, sh.lastSeq
	}
	return 0, 0
}

// Status lists every shard copy this standby holds.
func (ss *StandbyStore) Status() []ShardStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var out []ShardStatus
	for name, sh := range ss.shards {
		out = append(out, ShardStatus{Shard: name, Gen: sh.gen, LastSeq: sh.lastSeq, Pending: sh.pending, Fence: sh.fence})
	}
	return out
}

// Close closes every shard copy's journal file.
func (ss *StandbyStore) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil
	}
	ss.closed = true
	var firstErr error
	for _, sh := range ss.shards {
		if err := sh.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := sh.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// countPending tallies accepts with no terminal record.
func countPending(recs []Record) int {
	n := 0
	for _, rj := range foldJournal(recs) {
		if rj.State == "pending" {
			n++
		}
	}
	return n
}

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"regvirt/internal/jobs"
)

// StandbyStore is the receiving half of journal shipping: it files
// journal copies shipped by primary shards so that, when a shard dies,
// its accepted jobs can be adopted and re-run here. One directory per
// primary, holding nothing but the shipped journal and its sidecars:
//
//	<dir>/<shard>/shipped.wal  — the shipped journal, a journalFile like the primary's
//	<dir>/<shard>/journal.gen  — the shipped generation
//	<dir>/<shard>/fence.epoch  — the fence epoch (see ErrFenced)
//
// The copy stays bounded because the primary compacts the journal it
// ships: a compaction reaches the standby as a snapshot that replaces
// shipped.wal wholesale.
//
// Continuity discipline: a frame is appended only when its batch's
// generation matches and its sequence number is exactly last+1.
// Duplicates (seq at or below last) are acknowledged and dropped —
// shippers retry batches after network errors, so replay idempotence
// is part of the contract. Anything else is ErrGap, which tells the
// shipper to send a full snapshot; InstallSnapshot replaces the shard's
// copy wholesale.
type StandbyStore struct {
	dir string

	mu     sync.Mutex
	shards map[string]*standbyShard
	closed bool
}

type standbyShard struct {
	j       *journalFile // shipped.wal
	pending int          // pending accepts per the last full replay (status only)
	fence   uint64       // minimum ownership epoch this copy accepts ships from
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

// loadShard opens one shard's copy as the primary opens its journal:
// replay, cut the torn tail, recover (gen, lastSeq). Also the "standby
// restart during resync" path — whatever valid prefix the interrupted
// shipment left is where continuity resumes, and the next frame either
// extends it or forces a resync. Temp files a crash left in the copy's
// directory are deleted first, as Open deletes the primary's.
func (ss *StandbyStore) loadShard(shard string) (*standbyShard, error) {
	sdir := filepath.Join(ss.dir, shard)
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: standby: %w", err)
	}
	// A checkpoints/ directory here is left by a standby that also
	// received checkpoint blobs and never deleted them. Nothing reads
	// it, so loading the copy reclaims the space.
	if err := os.RemoveAll(filepath.Join(sdir, checkpointsDir)); err != nil {
		return nil, fmt.Errorf("store: standby: %w", err)
	}
	if err := removeTemps(sdir); err != nil {
		return nil, err
	}
	j, recs, err := openJournal(sdir, shippedName)
	if err != nil {
		return nil, fmt.Errorf("store: standby %s: %w", shard, err)
	}
	return &standbyShard{j: j, pending: countPending(recs), fence: readUint(filepath.Join(sdir, fenceName))}, nil
}

// fenceName is the sidecar persisting a shard copy's fence epoch, so
// a restarted standby keeps refusing a deposed primary's ships.
const fenceName = "fence.epoch"

// ErrFenced refuses a shipped message stamped with an ownership epoch
// below the copy's fence: its sender lost the keyspace to a newer owner,
// and nothing of the message is applied.
var ErrFenced = errors.New("store: standby: epoch below the copy's fence")

// FenceEpoch returns the shard copy's current fence (0 = unfenced).
func (ss *StandbyStore) FenceEpoch(shard string) uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if sh, ok := ss.shards[shard]; ok {
		return sh.fence
	}
	return 0
}

// ValidShard reports whether name can name a shard's standby copy, by
// the rule every StandbyStore method applies: 1 to 128 characters of
// [A-Za-z0-9_-].
func ValidShard(name string) bool { return safeID(name) }

// shardLocked returns (creating if needed) the shard's copy, its fence
// raised to epoch and persisted before that takes effect; an epoch at
// or below the fence leaves it as it is, since the fence only ratchets
// forward. ss.mu held.
func (ss *StandbyStore) shardLocked(shard string, epoch uint64) (*standbyShard, error) {
	if ss.closed {
		return nil, ErrClosed
	}
	if !safeID(shard) {
		return nil, fmt.Errorf("store: standby: invalid shard name %q", shard)
	}
	sh, ok := ss.shards[shard]
	if !ok {
		var err error
		if sh, err = ss.loadShard(shard); err != nil {
			return nil, err
		}
		ss.shards[shard] = sh
	}
	if epoch > sh.fence {
		if err := writeUint(filepath.Join(ss.dir, shard, fenceName), epoch); err != nil {
			return nil, err
		}
		sh.fence = epoch
	}
	return sh, nil
}

// ApplyFrames appends a shipped batch — journal frames of generation
// gen, as the primary's journal holds them, stamped with the sender's
// ownership epoch — to the shard's copy, and returns how many frames
// were newly applied. An epoch below the copy's fence applies nothing
// (ErrFenced); a higher one raises the fence. Frames are checked with
// the replay decoder, and the ones that extend the copy are appended
// with one write; a failed write applies none of them. It fsyncs once
// at the end, and only when the batch applied an accept: an accept is
// the primary's durability promise, and the standby's copy must be as
// durable before the primary acknowledges the job. Done and failed
// frames are not fsynced, as on the primary; losing them in a standby
// crash is safe, because Recover re-runs done jobs anyway, a lost
// failed record only re-runs a job that fails again, and the shortened
// copy reports a gap on the next ship, which resyncs it. A later
// accept's fsync (or Recover's own) covers them. Duplicates are skipped
// silently; the first gap or bad frame stops the batch with
// ErrGap/ErrBadFrame (everything before it is kept — it extended the
// copy validly). An empty copy adopts the generation of the first
// batch whose first frame is seq 1.
func (ss *StandbyStore) ApplyFrames(shard string, epoch, gen uint64, batch []byte) (applied int, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sh, err := ss.shardLocked(shard, epoch)
	if err == nil && epoch < sh.fence {
		err = fmt.Errorf("%w: epoch %d, fence %d", ErrFenced, epoch, sh.fence)
	}
	if err != nil {
		return 0, err
	}
	var (
		keep    = make([]byte, 0, len(batch))
		copyGen = sh.j.gen
		seq     = sh.j.seq
		pending = sh.pending
		accepts int
	)
	for rest := batch; len(rest) > 0; {
		rec, n, ok := nextFrame(rest)
		if !ok {
			err = fmt.Errorf("%w: %d bytes after seq %d do not start a whole, valid frame", ErrBadFrame, len(rest), seq)
			break
		}
		frame := rest[:n]
		rest = rest[n:]
		if gen != copyGen {
			if copyGen != 0 || seq != 0 || rec.Seq != 1 {
				err = fmt.Errorf("%w: batch gen %d, have gen %d", ErrGap, gen, copyGen)
				break
			}
			copyGen = gen // bootstrap: the stream starts at its beginning
		}
		if rec.Seq <= seq {
			continue // duplicate replay: idempotent
		}
		if rec.Seq != seq+1 {
			err = fmt.Errorf("%w: frame seq %d, have seq %d", ErrGap, rec.Seq, seq)
			break
		}
		keep = append(keep, frame...)
		seq = rec.Seq
		switch rec.Op {
		case OpAccept:
			pending++
			accepts++
		case OpDone, OpFailed:
			if pending > 0 {
				pending--
			}
		}
		applied++
	}
	if applied == 0 {
		return 0, err
	}
	if werr := sh.j.append(keep, seq); werr != nil {
		return 0, fmt.Errorf("store: standby %s: %w", shard, werr)
	}
	sh.j.setGen(copyGen)
	sh.pending = pending
	if accepts > 0 {
		if serr := sh.j.sync(); serr != nil && err == nil {
			err = fmt.Errorf("store: standby %s: %w", shard, serr)
		}
	}
	return applied, err
}

// InstallSnapshot replaces the shard's copy wholesale with a shipped
// journal of generation gen, stamped with the sender's ownership epoch:
// the resync path. The fence rule is ApplyFrames'. The snapshot must
// replay whole (ErrBadFrame otherwise, and the copy stays as it was);
// after it, ApplyFrames expects the sequence number after its last
// record's. It returns the number of records installed.
func (ss *StandbyStore) InstallSnapshot(shard string, epoch, gen uint64, journal []byte) (int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sh, err := ss.shardLocked(shard, epoch)
	if err == nil && epoch < sh.fence {
		err = fmt.Errorf("%w: epoch %d, fence %d", ErrFenced, epoch, sh.fence)
	}
	if err != nil {
		return 0, err
	}
	recs, valid := readJournal(journal)
	if valid != int64(len(journal)) {
		return 0, fmt.Errorf("%w: snapshot replays %d of %d bytes", ErrBadFrame, valid, len(journal))
	}
	var seq uint64
	if len(recs) > 0 {
		seq = recs[len(recs)-1].Seq
	}
	if err := sh.j.replace(journal, gen, seq); err != nil {
		return 0, fmt.Errorf("store: standby %s: %w", shard, err)
	}
	sh.pending = countPending(recs)
	return len(recs), nil
}

// Recover adopts the shard's copy at ownership epoch: under one lock it
// raises the fence to epoch, so nothing the deposed owner ships lands
// after the replay, and reconstructs the jobs in acceptance order.
// "done" entries come back as pending: the result file lives on the
// (dead) primary's disk, and re-running is byte-identical by the
// determinism contract, so adoption re-enqueues them. "failed" entries
// stay failed — the journal promises they fail deterministically.
func (ss *StandbyStore) Recover(shard string, epoch uint64) ([]jobs.RecoveredJob, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sh, err := ss.shardLocked(shard, epoch)
	if err != nil {
		return nil, err
	}
	if err := sh.j.sync(); err != nil {
		return nil, fmt.Errorf("store: standby %s: %w", shard, err)
	}
	raw, err := sh.j.contents()
	if err != nil {
		return nil, fmt.Errorf("store: standby %s: %w", shard, err)
	}
	recs, _ := readJournal(raw)

	recovered := foldJournal(recs)
	for i := range recovered {
		if recovered[i].State == "done" {
			recovered[i].State = "pending" // result unreachable on the dead primary: re-run
		}
	}
	return recovered, nil
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
		return sh.j.gen, sh.j.seq
	}
	return 0, 0
}

// Status lists every shard copy this standby holds.
func (ss *StandbyStore) Status() []ShardStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var out []ShardStatus
	for name, sh := range ss.shards {
		out = append(out, ShardStatus{Shard: name, Gen: sh.j.gen, LastSeq: sh.j.seq, Pending: sh.pending, Fence: sh.fence})
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
		if err := sh.j.close(); err != nil && firstErr == nil {
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

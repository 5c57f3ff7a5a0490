package store

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"regvirt/internal/integrity"
	"regvirt/internal/jobs"
)

// ScrubOptions wires the repair ladder into one scrub pass. Both
// fields are optional; without Resim, corrupt results can only be
// quarantined (removed so the journal re-runs them on next restart).
type ScrubOptions struct {
	// Resim deterministically re-executes a job spec salvaged from a
	// corrupt envelope. The spec is only used after its content address
	// matches the file name, so a rotted spec can never re-simulate the
	// wrong job.
	Resim func(job jobs.Job) (*jobs.Result, error)
	// Log receives one structured event per corruption found/repaired.
	Log *slog.Logger
}

// Scrub walks the result and checkpoint stores once, verifying every
// envelope and self-healing corruption (an unsealed file counts as
// corrupt): results are re-simulated from the embedded spec, else
// quarantined; a corrupt checkpoint is simply dropped (it is an
// optimization — the journal re-runs the job from cycle 0,
// byte-identically). Safe to run concurrently with normal store
// traffic. Done writes a result in place under the store lock, so the
// scrubber reads each result under that lock too and never mistakes a
// half-written file for a corrupt one. A repair is re-simulated outside
// the lock, then written or quarantined under it only if the file still
// fails to open: a racing Done has already written the identical bytes
// the scrubber would (determinism is the tiebreak).
func (s *Store) Scrub(o ScrubOptions) integrity.Report {
	log := o.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return integrity.Report{}
	}
	var rep integrity.Report
	s.scrubResults(o, log, &rep)
	s.scrubCheckpoints(log, &rep)
	return rep
}

func (s *Store) scrubResults(o ScrubOptions, log *slog.Logger, rep *integrity.Report) {
	entries, err := os.ReadDir(filepath.Join(s.dir, resultsDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || !safeID(id) || !e.Type().IsRegular() {
			continue
		}
		s.mu.Lock()
		data, err := os.ReadFile(s.resultPath(id))
		s.mu.Unlock()
		if err != nil {
			continue
		}
		rep.Scanned++
		_, oerr := integrity.Open(data)
		if oerr == nil {
			continue // sealed and checksum-clean
		}
		rep.Corrupt++
		log.Warn("scrub found corrupt result", "job", id, "err", oerr)
		if s.repairResult(o, log, id, data) {
			rep.Repaired++
		}
	}
}

// stillCorruptLocked reports whether the result file of id exists and
// fails to open (s.mu held): a repair or quarantine decided outside the
// lock applies only then, since a Done may have written the file since.
func (s *Store) stillCorruptLocked(id string) bool {
	data, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return false
	}
	_, oerr := integrity.Open(data)
	return oerr != nil
}

// replaceCorrupt writes a repaired envelope over a result file that is
// still corrupt; a file healed meanwhile counts as repaired.
func (s *Store) replaceCorrupt(id string, sealed []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stillCorruptLocked(id) {
		return nil
	}
	return writeInPlace(s.resultPath(id), sealed)
}

// repairResult climbs the ladder: deterministic re-simulation from the
// salvaged spec, then quarantine.
func (s *Store) repairResult(o ScrubOptions, log *slog.Logger, id string, raw []byte) bool {
	// The spec sits inside the corrupt envelope, so it proves itself by
	// hashing back to the file's content address. A proven spec is
	// embedded in the repaired envelope, keeping the file re-simulable.
	var job jobs.Job
	_, spec, _ := integrity.Salvage(raw)
	if json.Unmarshal(spec, &job) != nil || job.Key() != id {
		spec = nil
	}
	if o.Resim != nil && spec != nil {
		if res, err := o.Resim(job); err == nil && res != nil {
			if werr := s.replaceCorrupt(id, integrity.Seal(res.JSON(), spec)); werr == nil {
				log.Info("scrub repaired result", "job", id, "source", "resim")
				return true
			}
		} else if err != nil {
			log.Warn("scrub re-simulation failed", "job", id, "err", err)
		}
	}
	// Quarantine: remove the poisoned file. The journal (or a fresh
	// submission of the same content address) re-runs the job.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stillCorruptLocked(id) && os.Remove(s.resultPath(id)) == nil {
		log.Warn("scrub quarantined unrecoverable result", "job", id)
	}
	return false
}

func (s *Store) scrubCheckpoints(log *slog.Logger, rep *integrity.Report) {
	entries, err := os.ReadDir(filepath.Join(s.dir, checkpointsDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".ckpt")
		if !ok || !safeID(id) || !e.Type().IsRegular() {
			continue
		}
		path := s.checkpointPath(id)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rep.Scanned++
		_, oerr := integrity.Open(data)
		if oerr == nil {
			continue
		}
		// Dropping a corrupt checkpoint IS the repair: the journal
		// still holds the accept, and determinism makes a cycle-0
		// restart byte-identical.
		rep.Corrupt++
		log.Warn("scrub found corrupt checkpoint", "job", id, "err", oerr)
		if err := os.Remove(path); err == nil || os.IsNotExist(err) {
			rep.Repaired++
			log.Info("scrub dropped corrupt checkpoint", "job", id)
		}
	}
}

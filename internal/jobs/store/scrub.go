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
// hooks are optional; with neither set, corrupt results can only be
// quarantined (removed so the journal re-runs them on next restart).
type ScrubOptions struct {
	// Fetch retrieves a copy of a result by content address from a peer
	// or standby. The scrubber requires its ID to be the content
	// address, and seals it itself.
	Fetch func(id string) (*jobs.Result, bool)
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
// corrupt): results are refetched from a peer, else re-simulated from
// the embedded spec, else quarantined; a corrupt checkpoint is
// simply dropped (it is an optimization — the journal re-runs the job
// from cycle 0, byte-identically). Safe to run concurrently with
// normal store traffic: every write goes through the same atomic
// temp-and-rename door, and a racing Done writes the identical bytes
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
		path := s.resultPath(id)
		data, err := os.ReadFile(path)
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
		if s.repairResult(o, log, id, path, data) {
			rep.Repaired++
		}
	}
}

// repairResult climbs the ladder: peer refetch, deterministic
// re-simulation from the salvaged spec, then quarantine.
func (s *Store) repairResult(o ScrubOptions, log *slog.Logger, id, path string, raw []byte) bool {
	// The spec sits inside the corrupt envelope, so it proves itself by
	// hashing back to the file's content address. A proven spec is
	// embedded in the repaired envelope, keeping the file re-simulable.
	var job jobs.Job
	_, spec, _ := integrity.Salvage(raw)
	if json.Unmarshal(spec, &job) != nil || job.Key() != id {
		spec = nil
	}
	if o.Fetch != nil {
		if res, ok := o.Fetch(id); ok {
			if res.ID != id {
				log.Warn("scrub rejected peer copy", "job", id, "peer_id", res.ID)
			} else if werr := writeAtomic(path, integrity.Seal(res.JSON(), spec)); werr == nil {
				log.Info("scrub repaired result", "job", id, "source", "peer")
				return true
			}
		}
	}
	if o.Resim != nil && spec != nil {
		if res, err := o.Resim(job); err == nil && res != nil {
			if werr := writeAtomic(path, integrity.Seal(res.JSON(), spec)); werr == nil {
				log.Info("scrub repaired result", "job", id, "source", "resim")
				return true
			}
		} else if err != nil {
			log.Warn("scrub re-simulation failed", "job", id, "err", err)
		}
	}
	// Quarantine: remove the poisoned file. The journal (or a fresh
	// submission of the same content address) re-runs the job.
	if err := os.Remove(path); err == nil {
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

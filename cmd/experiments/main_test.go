package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"regvirt/internal/experiments"
)

func TestRunAllExperiments(t *testing.T) {
	// One shared runner: results are memoized, so the full sweep is the
	// cost of running each simulation once. CSV output on, to cover the
	// artifact writers.
	dir := t.TempDir()
	old := *csvDir
	*csvDir = dir
	defer func() { *csvDir = old }()
	r := experiments.NewRunner()
	for _, name := range order {
		if name == "report" {
			continue // covered in internal/experiments
		}
		if err := run(io.Discard, r, name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := run(io.Discard, r, "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Every figure with a CSV artifact must have written one.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 13 {
		t.Errorf("only %d CSV artifacts written", len(entries))
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	old := *csvDir
	*csvDir = dir
	defer func() { *csvDir = old }()
	r := experiments.NewRunner()
	if err := run(io.Discard, r, "fig7"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if len(data) == 0 {
		t.Error("empty CSV")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/all.golden")

// TestParallelMatchesSequential is the -j acceptance check: the full
// `all` sweep on 8 workers must produce bytes identical to the
// sequential sweep (each with a fresh runner, so the parallel run
// really computes everything itself), and the sequential sweep must
// match testdata/all.golden, the published `experiments all` output.
// Regenerate the golden with -args -update only when a figure is meant
// to move.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full double sweep in -short mode")
	}
	var seq bytes.Buffer
	if err := runAll(&seq, experiments.NewRunner(), order, 1); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, seq.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(golden); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(seq.Bytes(), want) {
		t.Errorf("`all` output differs from %s (%d vs %d bytes)", golden, seq.Len(), len(want))
	}
	var par bytes.Buffer
	if err := runAll(&par, experiments.NewRunner(), order, 8); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("-j 8 output differs from sequential run (%d vs %d bytes)", par.Len(), seq.Len())
	}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/workloads"
)

// TestRunWorkloadDump checks the metadata-words section of the compiled
// MatrixMul dump: each pir and pbr appears once, with its 64-bit word.
func TestRunWorkloadDump(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 1024, 48, "MatrixMul", nil); err != nil {
		t.Fatalf("workload dump: %v", err)
	}
	dump := out.String()
	if strings.Contains(dump, "binary listing") {
		t.Error("dump still has a binary listing section")
	}
	_, section, ok := strings.Cut(dump, "\n== metadata words ==\n")
	if !ok {
		t.Fatalf("no metadata words section:\n%s", dump)
	}
	section, _, _ = strings.Cut(section, "\n\n")
	lines := strings.Split(section, "\n")

	w, err := workloads.ByName("MatrixMul")
	if err != nil {
		t.Fatal(err)
	}
	k, err := compiler.Compile(w.Program(), compiler.Options{TableBytes: 1024, ResidentWarps: w.ResidentWarps()})
	if err != nil {
		t.Fatal(err)
	}
	metas := 0
	for _, in := range k.Prog.Instrs {
		if !in.Op.IsMeta() {
			continue
		}
		metas++
		word, err := isa.MetaWord(in)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%4d:  %016x  %s", in.PC, word, in)
		n := 0
		for _, l := range lines {
			if l == want {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%q appears %d times in the metadata words section", want, n)
		}
	}
	if metas == 0 || len(lines) != metas {
		t.Errorf("metadata words section has %d lines for %d metadata instructions:\n%s", len(lines), metas, section)
	}
}

func TestRunFileDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.asm")
	src := ".kernel d\n movi r1, 5\n iadd r2, r1, 1\n st.global [r3+0], r2\n exit\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, 1024, 8, "", []string{path}); err != nil {
		t.Errorf("file dump: %v", err)
	}
}

func TestRunDumpErrors(t *testing.T) {
	if err := run(io.Discard, 1024, 8, "", nil); err == nil {
		t.Error("no input accepted")
	}
	if err := run(io.Discard, 1024, 8, "NoSuch", nil); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(io.Discard, 1024, 8, "", []string{"/nonexistent.asm"}); err == nil {
		t.Error("missing file accepted")
	}
}

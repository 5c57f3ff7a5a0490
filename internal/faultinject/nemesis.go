package faultinject

// Nemesis primitives: the fault vocabulary of the cluster-level chaos
// suite. Where Injector wounds a process from the inside (injected
// errors, latency, panics at named sites), the nemesis attacks the
// environment around it — the network between nodes, the bytes on its
// disk, its scheduling — the way a Jepsen harness would.

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"syscall"
)

// PartitionSet is a dynamic network partition: a set of blocked hosts
// ("host:port") consulted by the Transport wrapper on every outbound
// request. Blocking is directional — each process owns its own set, so
// a pairwise partition blocks on both sides. Safe for concurrent use.
type PartitionSet struct {
	mu      sync.Mutex
	blocked map[string]bool
}

// NewPartitionSet returns an empty (fully connected) partition set.
func NewPartitionSet() *PartitionSet {
	return &PartitionSet{blocked: map[string]bool{}}
}

// Block black-holes outbound requests to the given "host:port" targets.
func (p *PartitionSet) Block(hosts ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range hosts {
		p.blocked[h] = true
	}
}

// Unblock heals the partition toward the given targets.
func (p *PartitionSet) Unblock(hosts ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range hosts {
		delete(p.blocked, h)
	}
}

// Clear heals every partition.
func (p *PartitionSet) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked = map[string]bool{}
}

// Blocked reports whether outbound traffic to host is black-holed.
func (p *PartitionSet) Blocked(host string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[host]
}

// Hosts returns the currently blocked targets, sorted.
func (p *PartitionSet) Hosts() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.blocked))
	for h := range p.blocked {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// ErrPartitioned is the error a blocked round trip fails with, wrapped
// so callers see an ordinary network failure.
var ErrPartitioned = fmt.Errorf("faultinject: network partition")

// partitionTransport consults the set before every round trip.
type partitionTransport struct {
	set  *PartitionSet
	base http.RoundTripper
}

func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.set.Blocked(req.URL.Host) {
		return nil, fmt.Errorf("%w: %s unreachable", ErrPartitioned, req.URL.Host)
	}
	base := t.base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// Transport wraps base (nil = http.DefaultTransport) so requests to
// blocked hosts fail like a dropped network instead of reaching the
// peer. Install it on every outbound client of a process to make the
// process's side of a partition real.
func (p *PartitionSet) Transport(base http.RoundTripper) http.RoundTripper {
	return &partitionTransport{set: p, base: base}
}

// FlipBit flips one bit of the file at path, in place — the at-rest
// corruption the read that meets it must detect and heal. bit indexes
// from the start of the file (bit 0 = lowest bit of byte 0) and wraps
// modulo the file size, so callers can hammer arbitrary offsets
// without sizing the file first. Empty files are left alone.
func FlipBit(path string, bit uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("faultinject: flip bit: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	bit %= uint64(len(data)) * 8
	data[bit/8] ^= 1 << (bit % 8)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("faultinject: flip bit: %w", err)
	}
	return nil
}

// PauseProcess SIGSTOPs a process — a hard GC pause or scheduler
// stall, as seen by its peers. ResumeProcess SIGCONTs it back.
func PauseProcess(pid int) error {
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		return fmt.Errorf("faultinject: pause pid %d: %w", pid, err)
	}
	return nil
}

// ResumeProcess resumes a paused process.
func ResumeProcess(pid int) error {
	if err := syscall.Kill(pid, syscall.SIGCONT); err != nil {
		return fmt.Errorf("faultinject: resume pid %d: %w", pid, err)
	}
	return nil
}

package faultinject

// Nemesis primitives: the fault vocabulary of the cluster-level chaos
// suite. Where Injector wounds a process from the inside (injected
// errors, latency, panics at named sites), the nemesis attacks the
// environment around it — the network between nodes, the bytes on its
// disk, its scheduling — the way a Jepsen harness would.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"syscall"
)

// PartitionSet is a dynamic network partition: a set of blocked hosts
// ("host:port") consulted by the Transport wrapper on every outbound
// request and every read of a body it carries. Blocking is directional
// — each process owns its own set, so a pairwise partition blocks on
// both sides. Safe for concurrent use.
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

// partitionTransport consults the set before every round trip, and
// wraps the bodies of those it lets through so that a partition that
// begins while one is open cuts it too.
type partitionTransport struct {
	set  *PartitionSet
	base http.RoundTripper
}

func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	if t.set.Blocked(host) {
		if req.Body != nil {
			req.Body.Close() // a RoundTripper closes the body, even on failure
		}
		return nil, fmt.Errorf("%w: %s unreachable", ErrPartitioned, host)
	}
	base := t.base
	if base == nil {
		base = http.DefaultTransport
	}
	if req.Body != nil && req.Body != http.NoBody {
		out := *req // a RoundTripper must not modify the request it is given
		out.Body = &partitionedBody{ReadCloser: req.Body, set: t.set, host: host}
		req = &out
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &partitionedBody{ReadCloser: resp.Body, set: t.set, host: host}
	return resp, nil
}

// partitionedBody fails every read made once its host is blocked,
// dropping what the read returned: a request body stops carrying bytes
// to the host, and a response body from it, at the next read. So a
// long-lived stream opened before a Block loses its next message, as a
// new request to the host fails.
type partitionedBody struct {
	io.ReadCloser
	set  *PartitionSet
	host string
}

func (b *partitionedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.set.Blocked(b.host) {
		return 0, fmt.Errorf("%w: %s unreachable", ErrPartitioned, b.host)
	}
	return n, err
}

// Transport wraps base (nil = http.DefaultTransport) so requests to
// blocked hosts fail like a dropped network instead of reaching the
// peer, and requests and responses already under way to a host that
// becomes blocked fail at their next read. Install it on every outbound
// client of a process to make the process's side of a partition real.
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

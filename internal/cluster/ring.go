// Package cluster turns N regvd shards into one service: a
// consistent-hash router fronts the shards (job IDs are already
// SHA-256 content addresses, so placement is a hash-ring lookup), and
// each shard ships its write-ahead journal to a warm-standby peer so a
// dead shard's accepted jobs re-run elsewhere — with the same
// byte-identical-result guarantee the single-node daemon makes.
//
// The pieces:
//
//   - Ring (ring.go): consistent hashing of content addresses onto
//     shard names, with virtual nodes for spread and a deterministic
//     walk for failover targets.
//   - Shipper (shipper.go): the store.Sink that replicates a shard's
//     journal frames to its standby over HTTP, synchronously for
//     accepts, with gap-triggered full resync.
//   - ShardServer (shard.go): the shard-side HTTP surface — receiving
//     shipments, adopting a dead peer's jobs, and reporting /v1/cluster
//     status — layered over the internal/jobs handler.
//   - Router (router.go): the coordinator clients talk to. It routes
//     by content address, probes shard health, retries through
//     internal/jobs/client, and fails a dead shard's keyspace over to
//     the standby that holds its shipped journal.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// defaultVNodes is the virtual-node count per shard. 64 points per
// shard keeps the keyspace split within a few percent of even for
// small clusters while the ring stays tiny (N*64 entries).
const defaultVNodes = 64

// Ring maps content addresses onto shard names by consistent hashing:
// each shard owns the arc before its virtual points, and a key belongs
// to the first point at or after its own hash. Adding or removing one
// shard moves only that shard's arcs — jobs already cached on the
// survivors keep their owners.
type Ring struct {
	points []ringPoint
	shards []string
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds a ring over the shard names (order-insensitive: the
// ring is a pure function of the name set, so every router instance
// agrees). vnodes <= 0 selects the default.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	seen := map[string]bool{}
	r := &Ring{}
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("cluster: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard %q", s)
		}
		seen[s] = true
		r.shards = append(r.shards, s)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(s + "#" + strconv.Itoa(v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard // stable on the astronomically unlikely collision
	})
	sort.Strings(r.shards)
	return r, nil
}

// Shards returns the shard names on the ring, sorted.
func (r *Ring) Shards() []string { return r.shards }

// Owner returns the shard owning a content address.
func (r *Ring) Owner(id string) string {
	return r.points[r.search(id)].shard
}

// OwnerAvoiding walks the ring from the key's position and returns the
// first shard not in down — the deterministic failover target when the
// owner (and possibly its successors) are unhealthy. ok is false when
// every shard is down.
func (r *Ring) OwnerAvoiding(id string, down map[string]bool) (string, bool) {
	start := r.search(id)
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(seen) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		if !down[p.shard] {
			return p.shard, true
		}
	}
	return "", false
}

// search finds the index of the first point at or after the key's hash.
func (r *Ring) search(id string) int {
	h := ringHash(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// ringHash is the ring's point hash: the first 8 bytes of SHA-256,
// matching the content addresses' own hash family so placement quality
// does not depend on a second, weaker hash.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

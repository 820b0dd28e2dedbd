// Package cluster scales mpss-served horizontally: a front tier that
// routes the public /v1 API across replicas by consistent hash on the
// canonical request key (api.RequestKey — the same sha256 each replica
// uses as its result-cache and singleflight key, so routing by it keeps
// every replica's LRU hot and sends identical concurrent requests to
// one replica, which solves them once), health-checks the replicas, and
// sizes the replica set with the solver itself: the autoscaler phrases
// "how many replicas do we need" as an mpss feasibility question —
// observed solve demand as jobs, replicas as processors — and picks the
// smallest feasible count (DESIGN.md §15).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
)

// defaultVnodes is the virtual-node count per member: enough that a
// 2–10 member ring splits the key space within a few percent of evenly,
// small enough that rebuilding on membership change is trivial.
const defaultVnodes = 64

// ring is a consistent-hash ring over replica names. Immutable once
// built — the front swaps whole rings on membership change, so readers
// never lock.
type ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct members, sorted
}

type ringPoint struct {
	hash   uint64
	member string
}

// ringHash maps a string onto the ring's key space. sha256-based so
// member names and (already-hex-sha256) request keys mix equally well.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds a ring with defaultVnodes virtual nodes per member. An
// empty member list yields an empty ring whose pick returns nil.
func newRing(members []string) *ring {
	r := &ring{names: slices.Clone(members)}
	slices.Sort(r.names)
	r.points = make([]ringPoint, 0, len(members)*defaultVnodes)
	var buf [8]byte
	for _, m := range members {
		for i := 0; i < defaultVnodes; i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(i))
			r.points = append(r.points, ringPoint{
				hash:   ringHash(m + "#" + string(buf[:])),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// owner returns the member owning key: the first virtual node clockwise
// from the key's hash ("" on an empty ring).
func (r *ring) owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// pick returns up to n distinct members in preference order for key:
// the owner first, then each next distinct member clockwise. The walk
// is the reroute order when the owner is down.
func (r *ring) pick(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	n = min(n, len(r.names))
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, at := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		m := r.points[(at+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search locates the first virtual node at or clockwise of key's hash.
func (r *ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// members returns the distinct member count.
func (r *ring) members() int {
	if r == nil {
		return 0
	}
	return len(r.names)
}

// Package cluster turns N soteriad processes into one analysis fleet.
//
// Ownership is decided by a consistent-hash ring over analysis keys
// (core.AnalysisKey — the content address of a result): each node
// projects VirtualNodes points onto a 64-bit circle, and a key belongs
// to the node whose point follows the key's hash clockwise. The ring
// is:
//
//   - deterministic: every node computes the identical ring from the
//     identical member list, whatever order the list arrives in, so a
//     statically configured fleet needs no coordination protocol;
//   - balanced: with the default 128 virtual nodes per member, the
//     largest ownership share stays within a few tens of percent of
//     the smallest (asserted by tests);
//   - stable under membership change: adding or removing one node
//     remaps only the keys that node gains or loses — about 1/N of
//     the space, bounded by 2/N in tests — while every other key keeps
//     its owner. That bound is what makes rolling a fleet restart
//     cheap: the store survives on each node, and only a sliver of
//     keys migrate to a new owner's cache.
//
// Membership is static (the soteriad -peers flag); liveness is handled
// above the ring by request routing's local-fallback path, never by
// mutating the ring — so two nodes with the same config can never
// disagree about ownership, even mid-failure.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-member point count when a Ring is
// built with vnodes <= 0. 128 keeps the max/min ownership spread
// under ~2x for small fleets while the ring stays tiny (N*128 points).
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring. Build one with NewRing;
// all methods are safe for concurrent use.
type Ring struct {
	members []string // sorted, deduplicated
	vnodes  int
	points  []ringPoint // sorted by hash, ties broken by member then index
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over members with vnodes points per member
// (<= 0 uses DefaultVirtualNodes). The member list is sorted and
// deduplicated, so any ordering of the same set yields the identical
// ring. An empty member list is an error: a ring with no owners can
// answer nothing.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]string{}, members...)
	sort.Strings(sorted)
	dedup := sorted[:0]
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if i > 0 && m == sorted[i-1] {
			continue
		}
		dedup = append(dedup, m)
	}
	if len(dedup) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	r := &Ring{
		members: dedup,
		vnodes:  vnodes,
		points:  make([]ringPoint, 0, len(dedup)*vnodes),
	}
	for mi, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   pointHash(m, v),
				member: mi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// A full-64-bit collision between distinct (member, vnode)
		// pairs is astronomically unlikely, but the tie-break keeps the
		// ring order fully deterministic even then.
		return r.members[a.member] < r.members[b.member]
	})
	return r, nil
}

// pointHash places one (member, vnode) pair on the circle. SHA-256 of
// the length-prefixed pair: collision-resistant, stable across
// processes and architectures (unlike maphash), and cheap enough for a
// build-once ring.
func pointHash(member string, vnode int) uint64 {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s#%d", len(member), member, vnode)
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// keyHash places an analysis key on the circle. Analysis keys are
// already uniform SHA-256 hex, but hashing again keeps the ring
// correct for arbitrary key strings (tests, synthetic keys).
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the ring's member list, sorted. The slice is shared:
// callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// VirtualNodes reports the per-member point count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Owner returns the member owning key: the member whose point is the
// first at or after the key's hash, wrapping at the top of the circle.
func (r *Ring) Owner(key string) string {
	return r.members[r.ownerIndex(keyHash(key))]
}

func (r *Ring) ownerIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Shares estimates each member's ownership fraction by walking the arc
// length every member owns on the circle. Exact for the hash space
// (not a sample), so tests can assert balance deterministically.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	arc := make([]uint64, len(r.members))
	// The arc ending at points[i] (exclusive of the previous point)
	// belongs to points[i]'s member; the wrap-around arc from the last
	// point to the first belongs to the first point's member.
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc[p.member] += p.hash - prev // uint64 wrap handles the seam
		prev = p.hash
	}
	for mi, m := range r.members {
		out[m] = float64(arc[mi]) / whole
	}
	return out
}

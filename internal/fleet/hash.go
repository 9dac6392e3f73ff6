package fleet

import (
	"encoding/binary"
	"math"
	"sort"

	"rlgraph/internal/tensor"
)

// FNV-1a 64-bit, inlined so hashing an observation makes no allocations.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, b [8]byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// hashObs hashes an observation's float bits. Identical observations hash
// identically, so equal-load ties route deterministically (and repeat
// lookups of the same state land on the same replica while loads stay
// balanced — friendlier to any per-replica caching downstream).
func hashObs(obs *tensor.Tensor) uint64 {
	h := uint64(fnvOffset)
	var b [8]byte
	for _, v := range obs.Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h = fnvMix(h, b)
	}
	return h
}

// hashRing is a classic consistent-hash ring: each replica owns vnodes
// points, lookups walk clockwise from the key's hash to the first point
// whose replica passes the membership filter. Replica membership changes
// (ejections, deaths) therefore move only the failed replica's arc — the
// surviving assignment stays put, which keeps tie-break routing stable
// through churn.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int
}

func newHashRing(replicas, vnodes int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, replicas*vnodes)}
	var b [8]byte
	for i := 0; i < replicas; i++ {
		for v := 0; v < vnodes; v++ {
			binary.LittleEndian.PutUint64(b[:], uint64(i)<<32|uint64(v))
			h := fnvMix(fnvOffset, b)
			// A second mixing round decorrelates the sequential seeds.
			binary.LittleEndian.PutUint64(b[:], h)
			r.points = append(r.points, ringPoint{hash: fnvMix(h, b), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// lookup walks the ring from h and returns the first member replica.
func (r *hashRing) lookup(h uint64, member replicaSet) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if member.has(p.idx) {
			return p.idx, true
		}
	}
	return 0, false
}

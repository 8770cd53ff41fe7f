package maint

import (
	"sync"
	"sync/atomic"
)

// DirtySet is the lock-striped set of vertices whose blocks changed since
// they were last compacted. The write path marks vertices here (one striped
// lock, not a global one), and maintenance slices drain bounded chunks.
//
// Alongside membership the set keeps a dead-bytes estimate: every Mark may
// carry a weight approximating the bytes the marking operation turned into
// garbage (an invalidated edge entry, a superseded vertex version). The
// estimate is what makes the scheduler's dead-bytes pressure trigger
// possible without scanning anything; it travels with the entry, so a
// drain, a re-mark after a budget cut, or a pass completion all keep the
// gauge consistent.
type DirtySet struct {
	shards []dirtyShard
	mask   uint64
	count  atomic.Int64
	dead   atomic.Int64
	// next is the shard a Drain starts from, rotated so successive bounded
	// drains service every shard instead of starving the high ones.
	next atomic.Uint64
}

type dirtyShard struct {
	mu   sync.Mutex
	m    map[int64]int64 // vertex id -> accumulated dead-bytes estimate
	peak int             // most entries m has held
	_    [3]int64        // keep neighboring shard locks off one cache line
}

// shardKeep is the most entries a shard's map may have held for Drain to
// keep it once it empties. A Go map never shrinks, so one burst of marks —
// a bulk load marks every vertex — would otherwise pin its buckets for the
// graph's lifetime. A map that stayed this small is kept, so the backlog a
// maintenance pass drains in steady state (hundreds to a few thousand
// vertices over all shards) does not regrow a fresh map per drain.
const shardKeep = 256

// DefaultShards is the stripe count used when NewDirtySet is given n <= 0.
// 64 stripes keep the marking path uncontended at every worker count the
// engine supports without making bounded drains scan a long shard array.
const DefaultShards = 64

// NewDirtySet creates a set with n lock stripes (rounded up to a power of
// two; DefaultShards if n <= 0).
func NewDirtySet(n int) *DirtySet {
	if n <= 0 {
		n = DefaultShards
	}
	sz := 1
	for sz < n {
		sz <<= 1
	}
	d := &DirtySet{shards: make([]dirtyShard, sz), mask: uint64(sz - 1)}
	for i := range d.shards {
		d.shards[i].m = make(map[int64]int64)
	}
	return d
}

// shardOf maps a vertex to its stripe. Vertex IDs are dense, so the low
// bits alone spread adjacent IDs across stripes.
func (d *DirtySet) shardOf(id int64) *dirtyShard {
	return &d.shards[uint64(id)&d.mask]
}

// Mark records that vertex id's blocks changed, accumulating deadBytes
// into the garbage estimate. Safe for concurrent use.
func (d *DirtySet) Mark(id, deadBytes int64) {
	s := d.shardOf(id)
	s.mu.Lock()
	old, ok := s.m[id]
	s.m[id] = old + deadBytes
	s.peak = max(s.peak, len(s.m))
	s.mu.Unlock()
	if !ok {
		d.count.Add(1)
	}
	if deadBytes != 0 {
		d.dead.Add(deadBytes)
	}
}

// Len returns the number of dirty vertices (exact between concurrent
// marks; the scheduler treats it as a pressure gauge).
func (d *DirtySet) Len() int64 { return d.count.Load() }

// DeadBytes returns the accumulated dead-bytes estimate of everything
// still in the set.
func (d *DirtySet) DeadBytes() int64 { return d.dead.Load() }

// Dirty is one drained entry: a vertex and the dead-bytes estimate it
// carried (returned so a caller cut short by its budget can Mark the
// entry back without losing the estimate).
type Dirty struct {
	ID   int64
	Dead int64
}

// Drain removes up to max entries, appending them to buf (which may be
// nil) and returning the result. Successive calls rotate the starting
// stripe so bounded drains eventually service every shard. A shard it
// empties gets a fresh map if the old one ever held more than shardKeep
// entries.
func (d *DirtySet) Drain(max int, buf []Dirty) []Dirty {
	if max <= 0 {
		return buf
	}
	n := len(d.shards)
	start := int(d.next.Add(1)-1) % n
	taken := 0
	for i := 0; i < n && taken < max; i++ {
		s := &d.shards[(start+i)%n]
		s.mu.Lock()
		for id, dead := range s.m {
			delete(s.m, id)
			buf = append(buf, Dirty{ID: id, Dead: dead})
			d.count.Add(-1)
			if dead != 0 {
				d.dead.Add(-dead)
			}
			taken++
			if taken >= max {
				break
			}
		}
		if len(s.m) == 0 && s.peak > shardKeep {
			s.m = make(map[int64]int64)
			s.peak = 0
		}
		s.mu.Unlock()
	}
	return buf
}

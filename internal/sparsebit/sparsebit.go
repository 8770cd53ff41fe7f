// Package sparsebit implements a lock-striped sparse bitset over
// non-negative int64 keys — the shared dedup structure of the morsel-driven
// traversal engine.
//
// The key space is divided into fixed 4096-bit pages materialised on first
// touch, so memory tracks the number of *distinct pages visited*, not the
// size of the ID space: a traversal that only sees a few thousand vertices
// out of a billion-ID graph allocates a handful of pages. Pages are hashed
// onto a power-of-two array of stripes, each guarded by its own mutex, so
// concurrent TestAndSet calls from a worker pool only contend when they
// land on the same stripe — the classic lock-striping recipe, sized by the
// caller to its worker count. A caller that has the Set to itself between
// two barriers skips the locks altogether: TestAndSetOwned to mutate, Peek
// to probe a frozen Set.
//
// Compared with the map[VertexID]struct{} it replaces, a Set wins twice:
// a set-membership test is a page lookup plus a bit probe (no hashing of
// every key into a growing open-addressed table), and Reset clears bits
// while *retaining* the allocated pages, so per-hop reuse stops paying
// map-growth cost on every frontier.
package sparsebit

import "sync"

// pageBits is the page size in bits. 4096 bits = 64 words = 512 B, one
// cache-friendly unit covering a contiguous 4096-ID range.
const pageBits = 1 << 12

const pageWords = pageBits / 64

type page [pageWords]uint64

type stripe struct {
	mu    sync.Mutex
	pages map[int64]*page
	_     [40]byte // pad to a cache line so stripes don't false-share
}

// Set is a sparse bitset safe for concurrent use. The zero value is not
// usable; construct with New.
type Set struct {
	stripes []stripe
	mask    int64
}

// New returns a Set striped across the given number of locks, rounded up
// to a power of two (minimum 1). A stripe count of ~2–4× the expected
// worker count keeps contention negligible; 1 is right for single-threaded
// use, where the uncontended mutex costs a single atomic each call.
func New(stripes int) *Set {
	n := 1
	for n < stripes {
		n <<= 1
	}
	s := &Set{stripes: make([]stripe, n), mask: int64(n - 1)}
	for i := range s.stripes {
		s.stripes[i].pages = make(map[int64]*page)
	}
	return s
}

// TestAndSet sets bit k and reports whether it was already set. k must be
// non-negative.
func (s *Set) TestAndSet(k int64) bool {
	pg := k / pageBits
	st := &s.stripes[pg&s.mask]
	st.mu.Lock()
	was := st.testAndSet(pg, uint(k%pageBits))
	st.mu.Unlock()
	return was
}

// TestAndSetOwned is TestAndSet without the stripe lock, for a goroutine
// that owns the Set outright: from a point that happens after every other
// goroutine's last use of the Set to one that happens before their next,
// it alone may call any method. The traversal engine's hops are such
// barriers — a sequential expansion runs between them on the caller's
// goroutine — and a mutex per destination costs it more than the bit probe
// it guards.
func (s *Set) TestAndSetOwned(k int64) bool {
	pg := k / pageBits
	return s.stripes[pg&s.mask].testAndSet(pg, uint(k%pageBits))
}

// testAndSet sets one bit of page pg, materialising the page on first
// touch. The caller holds st.mu or owns the Set.
func (st *stripe) testAndSet(pg int64, bit uint) bool {
	p := st.pages[pg]
	if p == nil {
		p = new(page)
		st.pages[pg] = p
	}
	word, mask := bit/64, uint64(1)<<(bit%64)
	was := p[word]&mask != 0
	p[word] |= mask
	return was
}

// Test reports whether bit k is set.
func (s *Set) Test(k int64) bool {
	pg, bit := k/pageBits, uint(k%pageBits)
	st := &s.stripes[pg&s.mask]
	st.mu.Lock()
	p := st.pages[pg]
	set := p != nil && p[bit/64]&(uint64(1)<<(bit%64)) != 0
	st.mu.Unlock()
	return set
}

// Peek reports whether bit k is set without taking the stripe lock. It is
// safe only on a frozen Set: every mutation (TestAndSet, Reset) must
// happen-before the goroutines calling Peek start, and no mutation may run
// concurrently. The direction-optimizing traversal engine builds a frontier
// bitset single-threaded and then probes it from the bottom-up worker pool,
// where a per-probe mutex would dominate the scan.
func (s *Set) Peek(k int64) bool {
	pg, bit := k/pageBits, uint(k%pageBits)
	p := s.stripes[pg&s.mask].pages[pg]
	return p != nil && p[bit/64]&(uint64(1)<<(bit%64)) != 0
}

// Reset clears every bit while retaining the allocated pages, so a Set
// reused across traversal hops stops allocating once it has seen the
// graph's working set. Not safe to call concurrently with other methods.
func (s *Set) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for _, p := range st.pages {
			*p = page{}
		}
		st.mu.Unlock()
	}
}

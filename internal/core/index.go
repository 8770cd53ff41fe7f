package core

import (
	"sync"
	"sync/atomic"
)

// chunkedIndex is the paper's "extendable array" index: an append-only,
// chunked array of atomic pointers indexed by vertex ID. Reads are
// lock-free; adding a chunk takes a mutex. Chunks are never reallocated,
// so a pointer loaded from a chunk stays valid forever — the property that
// lets readers traverse the index without coordination.
//
// Chunks are 4 096 slots (32 KiB), small enough that an index keyed by
// label — the degree statistics and the reverse index hold one or a few —
// pins one small chunk, not a vertex-sized one. Only the chunks that hold
// a set slot are allocated: the directory below the highest one holds nil
// for the rest, so one write to a high ID costs a chunk and 8 B of
// directory per 4 096 IDs below it, not every chunk below it. The
// directory is appended to in place and grows by doubling, as append does;
// each growth publishes a new slice header over it, and readers of an older
// header never look past its length.
type chunkedIndex[T any] struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]atomic.Pointer[indexChunk[T]]]
	grown  []atomic.Pointer[indexChunk[T]] // the directory being appended to, under mu
}

const chunkBits = 12
const chunkSize = 1 << chunkBits // 4096 slots per chunk

type indexChunk[T any] struct {
	slots [chunkSize]atomic.Pointer[T]
}

// chunk returns chunk c, or nil if it was never allocated.
func (ix *chunkedIndex[T]) chunk(c uint64) *indexChunk[T] {
	dir := ix.chunks.Load()
	if dir == nil || c >= uint64(len(*dir)) {
		return nil
	}
	return (*dir)[c].Load()
}

// Get returns the pointer at slot i, or nil if the slot was never set or is
// beyond the grown region. A negative i, compared unsigned, is beyond it.
func (ix *chunkedIndex[T]) Get(i int64) *T {
	ch := ix.chunk(uint64(i) >> chunkBits)
	if ch == nil {
		return nil
	}
	return ch.slots[i&(chunkSize-1)].Load()
}

// Cap returns the size of the grown region: every slot ever set lies
// below it.
func (ix *chunkedIndex[T]) Cap() int64 {
	dir := ix.chunks.Load()
	if dir == nil {
		return 0
	}
	return int64(len(*dir)) << chunkBits
}

// Each calls fn with every set slot below Cap, ascending, skipping the
// chunks never allocated.
func (ix *chunkedIndex[T]) Each(fn func(i int64, p *T)) {
	dir := ix.chunks.Load()
	if dir == nil {
		return
	}
	for c := range *dir {
		ch := (*dir)[c].Load()
		if ch == nil {
			continue
		}
		for j := range ch.slots {
			if p := ch.slots[j].Load(); p != nil {
				fn(int64(c)<<chunkBits|int64(j), p)
			}
		}
	}
}

// Set stores p at slot i, allocating its chunk as needed.
func (ix *chunkedIndex[T]) Set(i int64, p *T) {
	ix.slot(i).Store(p)
}

// CompareAndSwap atomically replaces slot i if it still holds old.
func (ix *chunkedIndex[T]) CompareAndSwap(i int64, old, new *T) bool {
	return ix.slot(i).CompareAndSwap(old, new)
}

func (ix *chunkedIndex[T]) slot(i int64) *atomic.Pointer[T] {
	c := uint64(i) >> chunkBits
	ch := ix.chunk(c)
	if ch == nil {
		ch = ix.alloc(int(c))
	}
	return &ch.slots[i&(chunkSize-1)]
}

// alloc returns chunk c, allocating it — and extending the directory to
// reach it — if it does not exist yet.
func (ix *chunkedIndex[T]) alloc(c int) *indexChunk[T] {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if c >= len(ix.grown) {
		if c >= cap(ix.grown) {
			dir := make([]atomic.Pointer[indexChunk[T]], len(ix.grown), max(c+1, 2*cap(ix.grown)))
			for j := range ix.grown {
				dir[j].Store(ix.grown[j].Load())
			}
			ix.grown = dir
		}
		ix.grown = ix.grown[:c+1]
	}
	ch := ix.grown[c].Load()
	if ch == nil {
		ch = &indexChunk[T]{}
		ix.grown[c].Store(ch)
	}
	dir := ix.grown
	ix.chunks.Store(&dir)
	return ch
}

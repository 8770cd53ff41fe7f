package core

import (
	"sync"
	"sync/atomic"
)

// chunkedIndex is the paper's "extendable array" index: an append-only,
// chunked array of atomic pointers indexed by vertex ID. Reads are
// lock-free; growing the chunk directory takes a mutex. Chunks are never
// reallocated, so a pointer loaded from a chunk stays valid forever —
// the property that lets readers traverse the index without coordination.
type chunkedIndex[T any] struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*indexChunk[T]]
}

const chunkBits = 16
const chunkSize = 1 << chunkBits // 65536 slots per chunk

type indexChunk[T any] struct {
	slots [chunkSize]atomic.Pointer[T]
}

// Get returns the pointer at slot i, or nil if the slot was never set or is
// beyond the grown region.
func (ix *chunkedIndex[T]) Get(i int64) *T {
	dir := ix.chunks.Load()
	if dir == nil {
		return nil
	}
	c := int(i >> chunkBits)
	if c >= len(*dir) {
		return nil
	}
	return (*dir)[c].slots[i&(chunkSize-1)].Load()
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

// Set stores p at slot i, growing the directory as needed.
func (ix *chunkedIndex[T]) Set(i int64, p *T) {
	ix.slot(i).Store(p)
}

// CompareAndSwap atomically replaces slot i if it still holds old.
func (ix *chunkedIndex[T]) CompareAndSwap(i int64, old, new *T) bool {
	return ix.slot(i).CompareAndSwap(old, new)
}

func (ix *chunkedIndex[T]) slot(i int64) *atomic.Pointer[T] {
	c := int(i >> chunkBits)
	dir := ix.chunks.Load()
	if dir == nil || c >= len(*dir) {
		ix.grow(c + 1)
		dir = ix.chunks.Load()
	}
	return &(*dir)[c].slots[i&(chunkSize-1)]
}

func (ix *chunkedIndex[T]) grow(n int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.chunks.Load()
	var old []*indexChunk[T]
	if cur != nil {
		old = *cur
	}
	if len(old) >= n {
		return
	}
	grown := make([]*indexChunk[T], n)
	copy(grown, old)
	for i := len(old); i < n; i++ {
		grown[i] = &indexChunk[T]{}
	}
	ix.chunks.Store(&grown)
}

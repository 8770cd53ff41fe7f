// Package storage implements LiveGraph's block storage manager: an arena of
// 64-bit words carved into power-of-2 sized blocks, with buddy-system style
// free lists (paper §6, "Memory management").
//
// The paper keeps TELs in a single memory-mapped file addressed by raw
// pointers. Go's garbage collector rules that layout out, so the arena is a
// series of []int64 slabs instead: a Block is one contiguous window into a
// slab, which preserves the property the paper actually relies on — edge log
// entries of one adjacency list live in contiguous, cache-friendly memory
// and every timestamp is an aligned 8-byte word suitable for sync/atomic. A
// block is the whole TEL: entries and their properties share it (the tel
// package comment has the layout), so there is one size class, one slab
// series and one free list per block, as in the paper.
//
// Slabs are 1 MiB. The arena grows one slab at a time and never returns
// one, so what the allocator holds beyond live and recycled blocks is the
// uncarved rest of the current slab: less than one slab. (A slab's tail too
// short for the block that opens the next slab is cut into free blocks, not
// stranded.) The size trades that reserve against refills: a 32 MiB slab
// is up to a third of a 100 MB graph's arena, while at 1 MiB a refill — one
// zeroed allocation under the allocator mutex — still comes only every few
// thousand blocks. Blocks larger than a slab get a dedicated allocation of
// their own.
//
// Free lists follow the paper's split design: size classes up to the
// threshold m given to NewAllocator are kept in per-thread
// (per-allocator-handle) lists to avoid contention on hot small blocks,
// larger classes are shared globally. The engine always passes
// DefaultSmallClassMax; the parameter remains so a test can bring the
// private/shared boundary within reach of a small allocation.
// Recycling of blocks that may still be visible to in-flight readers goes
// through an epoch-deferred free list (DeferFree / Reclaim).
package storage

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// MinBlockWords is the number of 8-byte words in the smallest block
	// (class 0). 8 words = 64 bytes, the paper's minimal TEL that holds a
	// header plus a single edge in one cache line.
	MinBlockWords = 8

	// NumClasses bounds the largest block at MinBlockWords<<(NumClasses-1)
	// words. The paper uses 58 classes (64 B … 2^57*64 B); 40 classes
	// (64 B … 32 TiB) is far beyond anything addressable here and keeps the
	// free-list arrays compact.
	NumClasses = 40

	// DefaultSmallClassMax is the paper's m, the value the engine runs
	// with: classes <= m use per-handle private free lists, larger
	// classes share a global list.
	DefaultSmallClassMax = 14

	// slabWords is the size of each arena slab (see the package comment).
	// Blocks never span slabs; a request larger than a slab gets a
	// dedicated allocation of its own.
	slabWords = 1 << 17 // 1 MiB a slab
)

// Block is a power-of-2 sized window of arena words.
type Block struct {
	// Words is the block's memory. len(Words) == MinBlockWords<<Class.
	Words []int64
	// Class is the size class (0 => 64 bytes).
	Class int
	// Off is the block's word offset in the global arena address space.
	// Adjacent small blocks share 4KB pages, exactly as they would in the
	// paper's single memory-mapped file — the out-of-core simulation
	// derives page identities from this offset.
	Off int64
}

// WordCap returns the word capacity of a block of the given class.
func WordCap(class int) int { return MinBlockWords << class }

// ClassFor returns the smallest class whose word capacity is >= words.
func ClassFor(words int) int {
	if words <= MinBlockWords {
		return 0
	}
	c := 0
	for w := MinBlockWords; w < words; w <<= 1 {
		c++
	}
	return c
}

// Stats is a point-in-time snapshot of allocator activity.
type Stats struct {
	AllocatedBlocks int64 // live blocks currently handed out
	AllocatedWords  int64 // words in live blocks
	RecycledBlocks  int64 // blocks sitting in free lists
	RecycledWords   int64 // words sitting in free lists
	SlabWords       int64 // total words reserved from the runtime
	ClassCounts     [NumClasses]int64
}

// Allocator is the shared block store. Use NewAllocator once per graph and
// Handle per worker thread.
type Allocator struct {
	smallClassMax int

	mu        sync.Mutex
	slab      []int64 // current slab bump region
	slabOff   int
	slabBase  int64 // arena offset of the current slab's word 0
	slabWords int64 // total words ever reserved (also: next arena offset)

	// shared free lists: classes > smallClassMax, and blocks of any class
	// that Reclaim recycles or a slab's tail is cut into
	shared [NumClasses][]*Block

	// deferred frees waiting for their epoch to pass
	deferred []deferredBlock

	allocBlocks int64
	allocWords  int64
	recBlocks   int64
	recWords    int64
	classCounts [NumClasses]int64
}

type deferredBlock struct {
	b     *Block
	epoch int64
}

// NewAllocator creates a block store. smallClassMax <= 0 selects the default.
func NewAllocator(smallClassMax int) *Allocator {
	if smallClassMax <= 0 {
		smallClassMax = DefaultSmallClassMax
	}
	if smallClassMax >= NumClasses {
		smallClassMax = NumClasses - 1
	}
	return &Allocator{smallClassMax: smallClassMax}
}

// Handle is a per-worker allocation handle holding private free lists for
// small classes (the paper's per-thread {S[0..m]} arrays). Handles are not
// safe for concurrent use; create one per worker goroutine.
type Handle struct {
	a       *Allocator
	private [][]*Block // indexed by class, len = smallClassMax+1
}

// NewHandle returns a worker-local allocation handle.
func (a *Allocator) NewHandle() *Handle {
	return &Handle{a: a, private: make([][]*Block, a.smallClassMax+1)}
}

// Alloc returns a zeroed block of the given class.
func (h *Handle) Alloc(class int) *Block {
	if class < 0 || class >= NumClasses {
		panic(fmt.Sprintf("storage: class %d out of range", class))
	}
	if class <= h.a.smallClassMax {
		if l := h.private[class]; len(l) > 0 {
			b := l[len(l)-1]
			h.private[class] = l[:len(l)-1]
			h.a.noteAlloc(b, -1)
			zero(b)
			return b
		}
	}
	return h.a.allocShared(class)
}

// Free returns a block to the free lists immediately. Only call when no
// other goroutine can still be reading the block (e.g. blocks allocated by
// an aborted transaction that never became visible).
func (h *Handle) Free(b *Block) {
	if b == nil {
		return
	}
	if b.Class <= h.a.smallClassMax {
		h.private[b.Class] = append(h.private[b.Class], b)
		h.a.noteFree(b, -1)
		return
	}
	h.a.freeShared(b)
}

// DeferFree schedules a block for recycling once every reader whose epoch is
// <= epoch has finished (paper: old TEL versions are kept until no longer
// visible, then garbage-collected in a future compaction cycle).
func (h *Handle) DeferFree(b *Block, epoch int64) { h.a.DeferFree(b, epoch) }

// Allocator-level operations -------------------------------------------------

func (a *Allocator) allocShared(class int) *Block {
	a.mu.Lock()
	if l := a.shared[class]; len(l) > 0 {
		b := l[len(l)-1]
		a.shared[class] = l[:len(l)-1]
		a.noteAllocLocked(b, -1)
		a.mu.Unlock()
		zero(b)
		return b
	}
	words := WordCap(class)
	var b *Block
	if words > slabWords {
		b = &Block{Words: make([]int64, words), Class: class, Off: a.slabWords}
		a.slabWords += int64(words)
	} else {
		if a.slabOff+words > len(a.slab) {
			// Blocks never span slabs: what is left of this one goes to the
			// shared free lists, largest class first, instead of being
			// stranded behind the new slab.
			for rest := len(a.slab) - a.slabOff; rest >= MinBlockWords; rest = len(a.slab) - a.slabOff {
				t := a.carve(bits.Len(uint(rest/MinBlockWords)) - 1)
				a.shared[t.Class] = append(a.shared[t.Class], t)
				atomic.AddInt64(&a.recBlocks, 1)
				atomic.AddInt64(&a.recWords, int64(len(t.Words)))
			}
			a.slab = make([]int64, slabWords)
			a.slabOff = 0
			a.slabBase = a.slabWords
			a.slabWords += slabWords
		}
		b = a.carve(class)
	}
	a.noteAllocLocked(b, +1)
	a.mu.Unlock()
	return b
}

// carve cuts a block of the given class from the current slab.
func (a *Allocator) carve(class int) *Block {
	words := WordCap(class)
	b := &Block{
		Words: a.slab[a.slabOff : a.slabOff+words : a.slabOff+words],
		Class: class,
		Off:   a.slabBase + int64(a.slabOff),
	}
	a.slabOff += words
	return b
}

func (a *Allocator) freeShared(b *Block) {
	a.mu.Lock()
	a.shared[b.Class] = append(a.shared[b.Class], b)
	a.noteFreeLocked(b, -1)
	a.mu.Unlock()
}

// DeferFree schedules a block for recycling once minimum reader epoch
// exceeds epoch.
func (a *Allocator) DeferFree(b *Block, epoch int64) {
	if b == nil {
		return
	}
	a.mu.Lock()
	a.deferred = append(a.deferred, deferredBlock{b: b, epoch: epoch})
	a.mu.Unlock()
}

// Reclaim moves all deferred blocks whose epoch is < minActive into the
// shared free lists and reports how many blocks (and how many arena
// words) were reclaimed. minActive is the minimum read epoch of any
// in-flight transaction (or the global read epoch if none is active).
func (a *Allocator) Reclaim(minActive int64) (blocks int, words int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.deferred[:0]
	for _, d := range a.deferred {
		if d.epoch < minActive {
			a.shared[d.b.Class] = append(a.shared[d.b.Class], d.b)
			a.noteFreeLocked(d.b, -1)
			blocks++
			words += int64(len(d.b.Words))
		} else {
			kept = append(kept, d)
		}
	}
	a.deferred = kept
	return blocks, words
}

// PendingDeferred reports how many blocks are awaiting reclamation.
func (a *Allocator) PendingDeferred() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.deferred)
}

// Stats returns a snapshot of allocator counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		AllocatedBlocks: atomic.LoadInt64(&a.allocBlocks),
		AllocatedWords:  atomic.LoadInt64(&a.allocWords),
		RecycledBlocks:  atomic.LoadInt64(&a.recBlocks),
		RecycledWords:   atomic.LoadInt64(&a.recWords),
		SlabWords:       a.slabWords,
		ClassCounts:     a.classCounts,
	}
}

// noteAlloc / noteFree keep the live/recycled counters. delta==+1 means a
// fresh slab carve (nothing leaves the recycled pool), delta==-1 means the
// block moved between the recycled pool and live set.
func (a *Allocator) noteAlloc(b *Block, fresh int) {
	a.mu.Lock()
	a.noteAllocLocked(b, fresh)
	a.mu.Unlock()
}

func (a *Allocator) noteAllocLocked(b *Block, fresh int) {
	atomic.AddInt64(&a.allocBlocks, 1)
	atomic.AddInt64(&a.allocWords, int64(len(b.Words)))
	a.classCounts[b.Class]++
	if fresh < 0 {
		atomic.AddInt64(&a.recBlocks, -1)
		atomic.AddInt64(&a.recWords, -int64(len(b.Words)))
	}
}

func (a *Allocator) noteFree(b *Block, _ int) {
	a.mu.Lock()
	a.noteFreeLocked(b, -1)
	a.mu.Unlock()
}

func (a *Allocator) noteFreeLocked(b *Block, _ int) {
	atomic.AddInt64(&a.allocBlocks, -1)
	atomic.AddInt64(&a.allocWords, -int64(len(b.Words)))
	a.classCounts[b.Class]--
	atomic.AddInt64(&a.recBlocks, 1)
	atomic.AddInt64(&a.recWords, int64(len(b.Words)))
}

func zero(b *Block) { clear(b.Words) }

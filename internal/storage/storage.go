// Package storage implements LiveGraph's block storage manager: an arena of
// 64-bit words carved into blocks of a fixed table of size classes, with one
// free list per class (paper §6, "Memory management").
//
// The paper's classes are the powers of two from 64 B. Here there are four
// classes per doubling, each a whole number of 64-byte cache lines: 64, 128,
// 192, 256, then 320, 384, 448, 512, then 640, 768, 896, 1024, and so on
// (WordCap). A list that grows by appending still at least doubles its
// block (tel.TEL.Upgrade), so appends stay amortised O(1); the finer steps
// are for placement, which knows a list's size when it picks a block — a
// transaction's new list at commit, or a compaction copy. Past 256 B the
// tightest class that holds a list is less than a fifth empty; with
// power-of-two classes it could be up to half.
//
// The paper keeps TELs in a single memory-mapped file and puts a block's
// address in each index slot. Go's garbage collector rules raw pointers
// into such a file out, so the arena is a series of []int64 slabs instead,
// and a block is named by a Ref: one word holding the block's offset in the
// arena's word address space (56 bits) and its size class (8 bits), zero
// meaning none. A Ref is a plain integer, so an index that stores Refs
// holds no Go pointer per adjacency list and the collector never scans
// one. That keeps the property the paper actually relies on — edge log
// entries of one adjacency list live in contiguous, cache-friendly memory
// and every timestamp is an aligned 8-byte word suitable for sync/atomic —
// at the price of one lookup per access. A block is the whole TEL: entries and
// their properties share it (the tel package comment has the layout), so
// there is one size class, one slab series and one free list per block,
// as in the paper.
//
// Words resolves a Ref through the slab directory: one entry per 1 MiB of
// arena address space, the slab's words, indexed by offset / slab size.
// The directory is append-only and published with an atomic store, so
// resolution is lock-free and a Ref loaded under a pinned epoch resolves
// to the same words until Reclaim recycles its block. Slabs are never
// returned. A block larger than a slab gets a dedicated allocation of its
// own, rounded up to whole slabs so every later slab still starts on a
// slab boundary; it takes as many directory entries as it spans slabs, and
// a Ref names its first.
//
// Slabs are 1 MiB. The arena grows one slab at a time, so what the
// allocator holds beyond live and recycled blocks is the uncarved rest of
// the current slab: less than one slab. (A slab's tail too short for the
// block that opens the next slab is cut into free blocks, not stranded.)
// The size trades that reserve against refills: a 32 MiB slab is up to a
// third of a 100 MB graph's arena, while at 1 MiB a refill — one zeroed
// allocation under the allocator mutex — still comes only every few
// thousand blocks.
//
// There is one free list per size class, shared by every caller under the
// allocator mutex. The paper splits them: classes up to a threshold m live
// in per-thread lists so hot small allocations skip the shared lock. Here
// that bought nothing — every Alloc and Free still took the mutex to keep
// the counters, and upgrades and compactions free through DeferFree and
// Reclaim, which always fed the shared lists — while a per-caller list
// stranded whatever it held when its owner went away. One list per class
// means every freed block is found by the next Alloc of its class.
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
	// (class 0). 8 words = 64 bytes, one cache line: the paper's minimal
	// block.
	MinBlockWords = 8

	// NumClasses bounds the largest block at WordCap(NumClasses-1) words,
	// 512 GiB: far beyond anything addressable here, and it keeps the
	// free-list arrays compact.
	NumClasses = 128

	// slabShift sizes each arena slab (see the package comment). Blocks
	// never span slabs; a request larger than a slab gets a dedicated
	// allocation of its own.
	slabShift = 17
	slabWords = 1 << slabShift // 1 MiB a slab

	// classBits is the low part of a Ref that holds class+1; the offset
	// has the other 56 bits.
	classBits = 8
)

// Ref names one block: its word offset in the arena address space and its
// size class. The zero Ref names no block. Adjacent small blocks share 4KB
// pages, exactly as they would in the paper's single memory-mapped file —
// the out-of-core simulation derives page identities from the offset.
type Ref uint64

func makeRef(off int64, class int) Ref { return Ref(off)<<classBits | Ref(class+1) }

// Off returns the block's word offset in the arena address space.
func (r Ref) Off() int64 { return int64(r >> classBits) }

// Class returns the block's size class (0 => 64 bytes).
func (r Ref) Class() int { return int(r&(1<<classBits-1)) - 1 }

// WordCap returns the word capacity of a block of the given class: one,
// two and three cache lines for classes 0-2, then (4+r)·2^q lines for
// class 3+4q+r, r < 4 — four classes per doubling.
func WordCap(class int) int {
	if class < 3 {
		return MinBlockWords * (class + 1)
	}
	c := class - 3
	return MinBlockWords * (4 + c&3) << (c >> 2)
}

// ClassFor returns the smallest class whose word capacity is >= words.
func ClassFor(words int) int {
	lines := (words + MinBlockWords - 1) / MinBlockWords
	if lines <= 4 {
		return max(lines, 1) - 1
	}
	// lines is in (4·2^q, 8·2^q]: the classes 4q+4 .. 4q+7 step by 2^q.
	q := bits.Len(uint(lines-1)) - 3
	step := 1 << q
	return 3 + 4*q + (lines+step-1)/step - 4
}

// classBelow returns the largest class whose word capacity is <= words,
// for words >= MinBlockWords.
func classBelow(words int) int {
	c := ClassFor(words)
	if WordCap(c) > words {
		c--
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

// Allocator is the block store: one per graph, safe for concurrent use.
type Allocator struct {
	// dir is the published slab directory: entry i holds the words of
	// arena offsets [i<<slabShift, (i+1)<<slabShift), or, for the first
	// entry of a dedicated allocation, all of its words. Entries are only
	// ever appended, each before the store that publishes it.
	dir atomic.Pointer[[][]int64]

	mu        sync.Mutex
	slabs     [][]int64 // the directory being appended to
	slab      []int64   // current slab bump region
	slabOff   int
	slabBase  int64 // arena offset of the current slab's word 0
	slabWords int64 // total words ever reserved (also: next arena offset)

	// free lists, one per class: blocks that Free or Reclaim recycled or
	// that a slab's tail was cut into
	free [NumClasses][]Ref

	// deferred frees waiting for their epoch to pass
	deferred []deferredRef

	allocBlocks int64
	allocWords  int64
	recBlocks   int64
	recWords    int64
	classCounts [NumClasses]int64
}

type deferredRef struct {
	r     Ref
	epoch int64
}

// NewAllocator creates an empty block store.
func NewAllocator() *Allocator { return &Allocator{} }

// Words resolves r to its block's words: len == WordCap(r.Class()). It
// takes no lock. The words stay valid, and stay r's, until r is freed and
// Reclaim or Free recycles it.
func (a *Allocator) Words(r Ref) []int64 {
	off := r.Off()
	s := (*a.dir.Load())[off>>slabShift]
	o := int(off & (slabWords - 1))
	n := WordCap(r.Class())
	return s[o : o+n : o+n]
}

// Alloc returns a zeroed block of the given class.
func (a *Allocator) Alloc(class int) Ref {
	if class < 0 || class >= NumClasses {
		panic(fmt.Sprintf("storage: class %d out of range", class))
	}
	words := WordCap(class)
	a.mu.Lock()
	if l := a.free[class]; len(l) > 0 {
		r := l[len(l)-1]
		a.free[class] = l[:len(l)-1]
		a.recBlocks--
		a.recWords -= int64(words)
		a.noteAllocLocked(r)
		a.mu.Unlock()
		clear(a.Words(r))
		return r
	}
	var r Ref
	if words > slabWords {
		// Whole slabs, so the next slab's offset is still a multiple of
		// slabWords and Words finds it by offset / slab size.
		r = makeRef(a.slabWords, class)
		a.reserveLocked(make([]int64, (words+slabWords-1)&^(slabWords-1)))
	} else {
		if a.slabOff+words > len(a.slab) {
			// Blocks never span slabs: what is left of this one goes to the
			// free lists, largest class first, instead of being stranded
			// behind the new slab.
			for rest := len(a.slab) - a.slabOff; rest >= MinBlockWords; rest = len(a.slab) - a.slabOff {
				a.pushLocked(a.carve(classBelow(rest)))
			}
			a.slab = make([]int64, slabWords)
			a.slabOff = 0
			a.slabBase = a.slabWords
			a.reserveLocked(a.slab)
		}
		r = a.carve(class)
	}
	a.noteAllocLocked(r)
	a.mu.Unlock()
	return r
}

// reserveLocked appends words, a whole number of slabs, to the arena
// address space and publishes their directory entries.
func (a *Allocator) reserveLocked(words []int64) {
	for i := 0; i < len(words); i += slabWords {
		a.slabs = append(a.slabs, words[i:])
	}
	a.slabWords += int64(len(words))
	dir := a.slabs
	a.dir.Store(&dir)
}

// carve cuts a block of the given class from the current slab.
func (a *Allocator) carve(class int) Ref {
	r := makeRef(a.slabBase+int64(a.slabOff), class)
	a.slabOff += WordCap(class)
	return r
}

// Free returns a block to its class's free list immediately. Only call
// when no other goroutine can still be reading the block (e.g. a block
// replaced during recovery, before any reader exists).
func (a *Allocator) Free(r Ref) {
	if r == 0 {
		return
	}
	a.mu.Lock()
	a.freeLocked(r)
	a.mu.Unlock()
}

// DeferFree schedules a block for recycling once every reader whose epoch
// is <= epoch has finished (paper: old TEL versions are kept until no
// longer visible, then garbage-collected in a future compaction cycle).
func (a *Allocator) DeferFree(r Ref, epoch int64) {
	if r == 0 {
		return
	}
	a.mu.Lock()
	a.deferred = append(a.deferred, deferredRef{r: r, epoch: epoch})
	a.mu.Unlock()
}

// Reclaim moves all deferred blocks whose epoch is < minActive onto the
// free lists and reports how many blocks (and how many arena
// words) were reclaimed. minActive is the minimum read epoch of any
// in-flight transaction (or the global read epoch if none is active).
func (a *Allocator) Reclaim(minActive int64) (blocks int, words int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.deferred[:0]
	for _, d := range a.deferred {
		if d.epoch < minActive {
			a.freeLocked(d.r)
			blocks++
			words += int64(WordCap(d.r.Class()))
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
		AllocatedBlocks: a.allocBlocks,
		AllocatedWords:  a.allocWords,
		RecycledBlocks:  a.recBlocks,
		RecycledWords:   a.recWords,
		SlabWords:       a.slabWords,
		ClassCounts:     a.classCounts,
	}
}

// noteAllocLocked counts r into the live set.
func (a *Allocator) noteAllocLocked(r Ref) {
	a.allocBlocks++
	a.allocWords += int64(WordCap(r.Class()))
	a.classCounts[r.Class()]++
}

// freeLocked moves r from the live set to its class's free list.
func (a *Allocator) freeLocked(r Ref) {
	a.allocBlocks--
	a.allocWords -= int64(WordCap(r.Class()))
	a.classCounts[r.Class()]--
	a.pushLocked(r)
}

// pushLocked puts r on its class's free list and counts it as recycled.
func (a *Allocator) pushLocked(r Ref) {
	c := r.Class()
	a.free[c] = append(a.free[c], r)
	a.recBlocks++
	a.recWords += int64(WordCap(c))
}

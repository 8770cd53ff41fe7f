// Package bloom implements the blocked Bloom filter that LiveGraph embeds in
// every TEL header (paper §4): a fixed-size filter occupying 1/16 of the TEL
// block (for blocks larger than 256 bytes), organised as 64-byte blocks so a
// membership test touches a single cache line (Putze et al.'s cache-efficient
// blocked design, paper ref [50]).
//
// The filter answers "was destination vertex d ever inserted into this
// adjacency list?" — a negative answer lets an edge insertion skip the
// tail-to-head scan for a previous version (the paper's "early rejection",
// effective in >99.9% of LinkBench insertions).
package bloom

import "sync/atomic"

// BlockWords is the number of 64-bit words in one filter block: 8 words =
// 64 bytes = one cache line.
const BlockWords = 8

// K is the number of bits set per key within its block.
const K = 4

// Filter is a view over a word slice owned by the caller (a slice of the TEL
// block's words). The zero-length filter accepts nothing and reports
// everything as possibly present, so callers fall back to scanning.
type Filter struct {
	words []int64
}

// View wraps a word region as a filter. The region length should be a
// multiple of BlockWords; a short region degrades to an always-maybe filter.
func View(words []int64) Filter {
	n := (len(words) / BlockWords) * BlockWords
	return Filter{words: words[:n]}
}

// WordsFor returns the filter length (in words) for a TEL block of
// totalWords words: 1/16 of the block, rounded down to whole cache lines,
// and zero for blocks of 256 bytes (32 words) or smaller, matching the
// paper's sizing rule.
func WordsFor(totalWords int) int {
	if totalWords <= 32 {
		return 0
	}
	w := totalWords / 16
	w -= w % BlockWords
	if w < BlockWords {
		w = BlockWords
	}
	return w
}

// Empty reports whether the filter has zero capacity (tiny blocks).
func (f Filter) Empty() bool { return len(f.words) == 0 }

// hash64 is a splitmix64-style finalizer: cheap, stdlib-free, good avalanche.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add records key in the filter. No-op on an empty filter. Bits are set
// with atomic OR so concurrent MayContain readers (which race with inserts
// by design, like the paper's in-block filters) never observe torn words.
func (f Filter) Add(key uint64) {
	if len(f.words) == 0 {
		return
	}
	base, h := f.block(key)
	for i := 0; i < K; i++ {
		bit := h & 511 // 512 bits per block
		w := &f.words[base+int(bit>>6)]
		mask := int64(1) << (bit & 63)
		for {
			old := atomic.LoadInt64(w)
			if old&mask != 0 || atomic.CompareAndSwapInt64(w, old, old|mask) {
				break
			}
		}
		h >>= 9
	}
}

// Set is Add with plain stores, for a filter no other goroutine can see
// yet: the words of a block that is being filled before it is published.
func (f Filter) Set(key uint64) {
	if len(f.words) == 0 {
		return
	}
	base, h := f.block(key)
	for i := 0; i < K; i++ {
		bit := h & 511
		f.words[base+int(bit>>6)] |= 1 << (bit & 63)
		h >>= 9
	}
}

// block returns the first word of key's filter block and the hash bits
// that pick its K bits there.
func (f Filter) block(key uint64) (base int, h uint64) {
	h = hash64(key)
	nblocks := uint64(len(f.words) / BlockWords)
	return int(h%nblocks) * BlockWords, hash64(h)
}

// MayContain reports whether key was possibly added. False negatives never
// occur for keys added via Add on the same region. An empty filter returns
// true (callers must scan).
func (f Filter) MayContain(key uint64) bool {
	if len(f.words) == 0 {
		return true
	}
	base, h := f.block(key)
	for i := 0; i < K; i++ {
		bit := h & 511
		if atomic.LoadInt64(&f.words[base+int(bit>>6)])&(1<<(bit&63)) == 0 {
			return false
		}
		h >>= 9
	}
	return true
}

// Reset clears all bits.
func (f Filter) Reset() {
	for i := range f.words {
		f.words[i] = 0
	}
}

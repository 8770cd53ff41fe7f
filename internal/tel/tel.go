// Package tel implements the Transactional Edge Log (paper §3, Figure 3):
// LiveGraph's multi-versioned, log-structured adjacency list stored in one
// contiguous block so that scans are purely sequential even under concurrent
// transactions.
//
// Block layout — one storage.Block of W words (8W bytes), entries growing
// from the front and properties from the back, as in the paper's Figure 3:
//
//	word 0              source vertex ID
//	word 1              label
//	word 2              commit timestamp CT        (atomic)
//	word 3              committed log size LS      (atomic, in entries)
//	word 4              committed property size PS (atomic, in bytes)
//	word 5              dead property bytes DB     (atomic, in bytes)
//	words 6 .. 6+F      blocked Bloom filter (F = bloom.WordsFor(W))
//	words 6+F ..        fixed-size edge log entries, 4 words each, growing up
//	   ...              free space
//	bytes .. 8W         property payloads, packed downward from the block end
//
// An edge log entry is 32 bytes: destination vertex, creation timestamp,
// invalidation timestamp, and a property reference (distance from the block
// end to the payload's first byte | payload size). Both timestamps are
// aligned 8-byte words accessed with sync/atomic — the Go analogue of the
// paper's cache-aligned fields that let readers check entry visibility
// without locks mid-scan. The block is full when the next entry's end would
// pass the start of the property bytes; entries and properties share one
// size class, so neither rounds up on its own.
//
// Property references are end-relative so that an upgrade moves a list
// without touching it: the entry prefix goes to the same word offsets of the
// bigger block and the property tail to the same distance from its end, so
// the move is two copies and every reference in the copied entries is still
// right. A reader still scanning the old block resolves the same reference
// against the old block's end.
//
// Scans iterate newest-to-oldest (descending index), the paper's sequential,
// time-locality-friendly order.
//
// Writers (one at a time per TEL, enforced by the vertex lock) append
// tentatively past the committed LS; the entry count and property length a
// transaction sees for its own TEL writes are carried in transaction state
// and published to LS/PS only at apply time, so aborted appends are simply
// overwritten by the next writer.
package tel

import (
	"sync/atomic"
	"unsafe"

	"livegraph/internal/bloom"
	"livegraph/internal/mvcc"
	"livegraph/internal/storage"
)

const (
	// HeaderWords is the fixed TEL header size in 8-byte words.
	HeaderWords = 6
	// EntryWords is the fixed edge log entry size in 8-byte words (32 B).
	EntryWords = 4

	propOffShift = 24
	propSizeMask = (1 << propOffShift) - 1
)

const (
	hdrSrc = iota
	hdrLabel
	hdrCT
	hdrLS
	hdrPS
	hdrDead
)

// TEL wraps a storage block as a Transactional Edge Log. An upgrade or a
// compaction moves the list to a new TEL; the old one is garbage once no
// reader holds it.
type TEL struct {
	Block *storage.Block

	entryBase int // word index where entries start
	filter    bloom.Filter
}

// New allocates a TEL for (src, label) able to hold at least minEntries
// edge log entries and minPropBytes of property payload.
func New(h *storage.Handle, src, label int64, minEntries, minPropBytes int) *TEL {
	t := wrap(h.Alloc(classFor(0, minEntries, minPropBytes)))
	t.Block.Words[hdrSrc] = src
	t.Block.Words[hdrLabel] = label
	return t
}

// classFor picks the smallest block class, from minClass up, whose bytes
// hold the header, the filter, entries edge log entries and propBytes of
// properties.
func classFor(minClass, entries, propBytes int) int {
	for class := minClass; class < storage.NumClasses; class++ {
		words := storage.WordCap(class)
		if (HeaderWords+bloom.WordsFor(words)+entries*EntryWords)*8+propBytes <= words*8 {
			return class
		}
	}
	panic("tel: adjacency list exceeds maximum block size")
}

func wrap(b *storage.Block) *TEL {
	f := bloom.WordsFor(len(b.Words))
	return &TEL{
		Block:     b,
		entryBase: HeaderWords + f,
		filter:    bloom.View(b.Words[HeaderWords : HeaderWords+f]),
	}
}

// bytes views the block's words as bytes: properties are byte-packed into
// the same memory as the entries, and an unsafe.Slice view is how one Go
// allocation holds both — a separate []byte would be a second region with
// its own size class and slab. The view is never stored, so a TEL and its
// block carry one slice header.
func (t *TEL) bytes() []byte {
	w := t.Block.Words
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// Src returns the source vertex this adjacency list belongs to.
func (t *TEL) Src() int64 { return t.Block.Words[hdrSrc] }

// Label returns the edge label of this adjacency list.
func (t *TEL) Label() int64 { return t.Block.Words[hdrLabel] }

// CommitTS returns the TEL's commit timestamp CT: the timestamp of the
// latest transaction that modified it. Writers compare their read epoch
// against CT to detect write-write conflicts cheaply (first-committer-wins)
// instead of scanning the log.
func (t *TEL) CommitTS() int64 { return atomic.LoadInt64(&t.Block.Words[hdrCT]) }

// Len returns the committed number of edge log entries (LS).
func (t *TEL) Len() int { return int(atomic.LoadInt64(&t.Block.Words[hdrLS])) }

// PropLen returns the committed property byte length (PS).
func (t *TEL) PropLen() int { return int(atomic.LoadInt64(&t.Block.Words[hdrPS])) }

// DeadBytes returns the exact bytes held by invalidated entries in this TEL:
// entry words plus property payload for every entry whose invalidation
// timestamp was flipped to a committed epoch. Maintained at apply time, it
// gives compaction pressure and the checkpoint rebase trigger an exact
// figure instead of the write-path heuristic estimate.
func (t *TEL) DeadBytes() int64 { return atomic.LoadInt64(&t.Block.Words[hdrDead]) }

// AddDeadBytes accumulates n bytes of newly dead entry+property payload.
func (t *TEL) AddDeadBytes(n int64) { atomic.AddInt64(&t.Block.Words[hdrDead], n) }

// SetDeadBytes overwrites the dead-byte counter (used when a rebuilt block
// recomputes its dead set, e.g. compaction retaining history entries).
func (t *TEL) SetDeadBytes(n int64) { atomic.StoreInt64(&t.Block.Words[hdrDead], n) }

// EntryDeadBytes returns the exact byte cost of entry i going dead: its
// fixed entry words plus its property payload.
func (t *TEL) EntryDeadBytes(i int) int64 {
	return int64(EntryWords*8 + len(t.Props(i)))
}

// Publish atomically exposes n entries / propLen property bytes and stamps
// the commit timestamp — the apply-phase "update tail" step. The entry
// contents must already be fully written; the atomic LS store is the release
// barrier concurrent readers synchronise on.
func (t *TEL) Publish(n, propLen int, ts int64) {
	atomic.StoreInt64(&t.Block.Words[hdrCT], ts)
	atomic.StoreInt64(&t.Block.Words[hdrPS], int64(propLen))
	atomic.StoreInt64(&t.Block.Words[hdrLS], int64(n))
}

// Fits reports whether one more entry with propBytes of properties fits
// given the tentative sizes (n entries, propLen bytes already used): the
// end of entry n must not pass the start of the properties.
func (t *TEL) Fits(n, propLen, propBytes int) bool {
	return (t.entryBase+(n+1)*EntryWords)*8+propLen+propBytes <= len(t.Block.Words)*8
}

// Append writes an edge log entry at slot n with the given destination,
// creation timestamp (normally -TID during the work phase) and properties,
// whose bytes are copied in just below the propLen bytes already used. It
// returns the new property length. The caller must hold the vertex lock and
// must have checked Fits.
//
// The entry's invalidation timestamp is set to NullTS. The Bloom filter is
// updated so later operations on the same destination take the scan path.
func (t *TEL) Append(n int, dst, creation int64, props []byte, propLen int) int {
	return t.put(n, dst, creation, mvcc.NullTS, props, propLen)
}

func (t *TEL) put(n int, dst, creation, invalidation int64, props []byte, propLen int) int {
	w := t.entryBase + n*EntryWords
	words := t.Block.Words
	words[w+0] = dst
	propLen += len(props)
	b := t.bytes()
	copy(b[len(b)-propLen:], props)
	words[w+3] = int64(propLen)<<propOffShift | int64(len(props))
	// Timestamps are stored atomically: a concurrent reader racing past the
	// committed LS of a *previous* version must never observe a torn word.
	atomic.StoreInt64(&words[w+2], invalidation)
	atomic.StoreInt64(&words[w+1], creation)
	t.filter.Add(uint64(dst))
	return propLen
}

// Dst returns entry i's destination vertex.
func (t *TEL) Dst(i int) int64 { return t.Block.Words[t.entryBase+i*EntryWords] }

// Creation returns entry i's creation timestamp.
func (t *TEL) Creation(i int) int64 {
	return atomic.LoadInt64(&t.Block.Words[t.entryBase+i*EntryWords+1])
}

// SetCreation atomically stores entry i's creation timestamp (the apply
// phase's -TID → TWE flip).
func (t *TEL) SetCreation(i int, ts int64) {
	atomic.StoreInt64(&t.Block.Words[t.entryBase+i*EntryWords+1], ts)
}

// Invalidation returns entry i's invalidation timestamp.
func (t *TEL) Invalidation(i int) int64 {
	return atomic.LoadInt64(&t.Block.Words[t.entryBase+i*EntryWords+2])
}

// SetInvalidation atomically stores entry i's invalidation timestamp.
func (t *TEL) SetInvalidation(i int, ts int64) {
	atomic.StoreInt64(&t.Block.Words[t.entryBase+i*EntryWords+2], ts)
}

// CASInvalidation atomically replaces entry i's invalidation timestamp if it
// still holds old. Used when aborting (revert -TID → NULL).
func (t *TEL) CASInvalidation(i int, old, new int64) bool {
	return atomic.CompareAndSwapInt64(&t.Block.Words[t.entryBase+i*EntryWords+2], old, new)
}

// Props returns entry i's property bytes (a sub-slice of the block; callers
// must copy if they retain it beyond the transaction).
func (t *TEL) Props(i int) []byte {
	ref := t.Block.Words[t.entryBase+i*EntryWords+3]
	b := t.bytes()
	start := len(b) - int(ref>>propOffShift)
	end := start + int(ref&propSizeMask)
	return b[start:end:end]
}

// pageWords is 4096 bytes of words — the unit of the out-of-core paging
// model (one OS page).
const pageWords = 512

// EntryPage returns the global arena 4KB-page index that entry i's words
// live on. The out-of-core simulation charges page faults at this
// granularity, like mmap over the paper's single file: small neighboring
// blocks share pages, and a partial newest-first scan of a large block
// touches only its tail pages.
func (t *TEL) EntryPage(i int) int64 {
	return (t.Block.Off + int64(t.entryBase+i*EntryWords)) / pageWords
}

// FirstPage returns the global page of the block's header.
func (t *TEL) FirstPage() int64 { return t.Block.Off / pageWords }

// LastPage returns the global page of the block's final word.
func (t *TEL) LastPage() int64 {
	return (t.Block.Off + int64(len(t.Block.Words)) - 1) / pageWords
}

// MayContain consults the embedded Bloom filter: false means dst was
// certainly never inserted into this block, so an insertion can skip the
// previous-version scan (the paper's "early rejection").
func (t *TEL) MayContain(dst int64) bool { return t.filter.MayContain(uint64(dst)) }

// FilterEmpty reports whether the block is too small to carry a filter.
func (t *TEL) FilterEmpty() bool { return t.filter.Empty() }

// FindLatest scans tail-to-head over the first n entries for the most
// recent entry for dst that is visible at (tre, tid) — the lookup an edge
// update/delete performs to find the version it must invalidate, and the
// read path for a single edge. Returns the entry index or -1.
func (t *TEL) FindLatest(dst int64, n int, tre, tid int64) int {
	for i := n - 1; i >= 0; i-- {
		if t.Dst(i) != dst {
			continue
		}
		if mvcc.Visible(t.Creation(i), t.Invalidation(i), tre, tid) {
			return i
		}
	}
	return -1
}

// Upgrade moves t's first n entries and propLen property bytes into the
// smallest block class above t's that also fits one more entry with
// propBytes of properties (paper §3: dynamic-array doubling, amortised O(1)
// appends), and rebuilds the Bloom filter there. The new block carries the
// identical committed prefix, so swapping the index pointer is safe
// mid-transaction; t is left as it was for readers still scanning it.
func (t *TEL) Upgrade(h *storage.Handle, n, propLen, propBytes int) *TEL {
	nt := wrap(h.Alloc(classFor(t.Block.Class+1, n+1, propLen+propBytes)))
	copy(nt.Block.Words[nt.entryBase:], t.Block.Words[t.entryBase:t.entryBase+n*EntryWords])
	nb, b := nt.bytes(), t.bytes()
	copy(nb[len(nb)-propLen:], b[len(b)-propLen:])
	nt.Block.Words[hdrSrc] = t.Block.Words[hdrSrc]
	nt.Block.Words[hdrLabel] = t.Block.Words[hdrLabel]
	atomic.StoreInt64(&nt.Block.Words[hdrCT], t.CommitTS())
	atomic.StoreInt64(&nt.Block.Words[hdrPS], int64(t.PropLen()))
	atomic.StoreInt64(&nt.Block.Words[hdrLS], int64(t.Len()))
	atomic.StoreInt64(&nt.Block.Words[hdrDead], t.DeadBytes())
	for i := 0; i < n; i++ {
		nt.filter.Add(uint64(nt.Dst(i)))
	}
	return nt
}

// CompactAppend copies entry i of src (with its properties) to slot n of t,
// re-packing properties below propLen. Returns the new property length.
// Used by compaction, which keeps only entries still visible to some epoch.
func (t *TEL) CompactAppend(src *TEL, i, n, propLen int) int {
	return t.put(n, src.Dst(i), src.Creation(i), src.Invalidation(i), src.Props(i), propLen)
}

// Iter is a purely sequential scan over the first n entries of a TEL,
// newest first, yielding only entries visible at (tre, tid). It performs no
// allocation and no random access: visibility is decided from the two
// timestamps embedded in each fixed-size entry (paper §4, "Sequential
// adjacency list scans").
type Iter struct {
	t        *TEL
	i        int
	tre, tid int64
}

// Scan returns an iterator over the first n entries (pass t.Len() for a
// committed snapshot scan, or the transaction's tentative count to include
// its own writes).
func (t *TEL) Scan(n int, tre, tid int64) Iter {
	return Iter{t: t, i: n, tre: tre, tid: tid}
}

// Next advances to the next visible entry, returning its index, or -1 when
// the scan is complete.
func (it *Iter) Next() int {
	for it.i--; it.i >= 0; it.i-- {
		if mvcc.Visible(it.t.Creation(it.i), it.t.Invalidation(it.i), it.tre, it.tid) {
			return it.i
		}
	}
	return -1
}

// NextWhere is Next with a destination predicate pushed into the scan
// loop: entries whose destination fails keep are skipped before the
// visibility check — one plain word load against two atomic timestamp
// loads — which is what makes predicate pushdown cheaper than
// materialize-then-filter. Because the predicate also runs on entries that
// would fail the visibility check, keep must be a pure function of the
// destination ID (the traversal planner only fuses such predicates).
func (it *Iter) NextWhere(keep func(dst int64) bool) int {
	for it.i--; it.i >= 0; it.i-- {
		if !keep(it.t.Dst(it.i)) {
			continue
		}
		if mvcc.Visible(it.t.Creation(it.i), it.t.Invalidation(it.i), it.tre, it.tid) {
			return it.i
		}
	}
	return -1
}

// Package tel implements the Transactional Edge Log (paper §3, Figure 3):
// LiveGraph's multi-versioned, log-structured adjacency list stored in one
// contiguous block so that scans are purely sequential even under concurrent
// transactions.
//
// Block layout — one storage block of W words (8W bytes), entries growing
// from the front and properties from the back, as in the paper's Figure 3:
//
//	word 0              source vertex ID
//	word 1              label
//	word 2              commit timestamp CT        (atomic)
//	word 3              committed log size LS      (atomic, in entries)
//	word 4              committed property size PS (atomic, in bytes)
//	word 5              dead bytes DB              (atomic, in bytes)
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
// Property references are end-relative so that a move does not touch
// them: the entry prefix goes to the same word offsets past the filter of
// the new block and the property tail to the same distance from its end, so
// the move is two copies and every reference in the copied entries is still
// right. A reader still scanning the old block resolves the same reference
// against the old block's end. Every move — an upgrade, a private list's
// growth, its placement — is that one copy (moveTo).
//
// Scans iterate newest-to-oldest (descending index), the paper's sequential,
// time-locality-friendly order.
//
// A list is named by its block's storage.Ref, which is what the engine's
// label index holds; New, Upgrade and Place return one. A TEL is a value
// view over the block: the resolved words, the Ref and where the entries
// start. It is made by At on each access and never stored in an index, so
// an adjacency list owns no Go heap object. A view stays usable as long as
// its Ref would resolve, i.e. until the block is recycled.
//
// # Private lists
//
// A list a transaction creates is not in the arena while the transaction
// runs. Private gives it the ordinary layout in Go-heap words, with a zero
// Ref, and Grow doubles it there; nothing else can see it. At commit Place
// copies it once into the tightest block class that holds it, with nothing
// committed (LS = PS = CT = 0), which is the state of any list before its
// writers' apply. So the blocks a list outgrows while it is being built are
// Go garbage the collector returns, not arena blocks in free lists, and the
// lists one transaction creates land contiguous, in the order they were
// written.
//
// Writers (one at a time per TEL, enforced by the vertex lock) append
// tentatively past the committed LS; the entry count and property length a
// transaction sees for its own TEL writes are carried in transaction state
// and published to LS/PS only at apply time, so aborted appends are simply
// overwritten by the next writer.
//
// DB counts the bytes (entry words plus property payload) of every entry in
// the block whose invalidation timestamp is a committed epoch. The package
// keeps it itself: SetInvalidation with a committed timestamp adds the
// entry's bytes, and so does writing an entry that already carries one (a
// compaction copy of history kept above the floor). Upgrade carries it over.
//
// # Settled lists
//
// A list is settled at read epoch tre when every committed entry in it is
// visible at tre. That holds when no commit touched the list after tre
// (CT <= tre), no entry in it was ever invalidated (DB == 0), and the reader
// has no tentative writes of its own on it (tid == 0, and the scan bound is
// the committed LS). Scan checks this once from the header, and the
// iterator then steps through the entries without testing their timestamps.
//
// The header check is sound because of the order of the stores. A commit
// stamped twe stores CT before LS (Publish), flips its entries' creation
// and invalidation timestamps to twe and adds their dead bytes to DB, and
// all of that happens before the global read epoch reaches twe (the
// committer flips after Publish, a replicated or recovered op before it;
// either order works). Settled loads LS first, then CT, then DB:
//
//   - If a commit above tre has published on the list, the reader either
//     sees its LS, and then its CT (stored earlier) is above tre; or it sees
//     the old LS, and then every entry below that LS is one the commit could
//     only invalidate at twe > tre, which leaves it visible at tre.
//   - If CT <= tre, the reader's tre came from a read epoch published after
//     that commit's flips and DB additions, so it sees all of them: every
//     entry below LS carries its committed creation timestamp, at or below
//     CT, and DB is non-zero if any committed invalidation is at or below
//     tre.
//
// Compaction copies surviving entries to a new block with the old CT, and
// DB there counts the invalidated entries it kept, so the rule carries over.
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

// TEL views a storage block as a Transactional Edge Log. An upgrade or a
// compaction moves the list to a new block; the old one is recycled once no
// reader can still hold its Ref.
type TEL struct {
	w         []int64
	ref       storage.Ref
	entryBase int // word index where entries start
}

// New allocates a TEL for (src, label) in the tightest block class that
// holds minEntries edge log entries and minPropBytes of property payload,
// and returns its block. Compaction places its copies with it.
func New(a *storage.Allocator, src, label int64, minEntries, minPropBytes int) storage.Ref {
	r := a.Alloc(classFor(0, minEntries, minPropBytes))
	w := a.Words(r)
	w[hdrSrc] = src
	w[hdrLabel] = label
	return r
}

// privateWords is the first size of a private list: a header, one entry
// and 64 B of properties, rounded up to a power of two.
const privateWords = 32

// Private returns a new, empty list for (src, label) in Go-heap words (see
// the package comment): its Ref is zero, and it grows with Grow, not
// Upgrade, until Place moves it into the arena.
func Private(src, label int64) TEL {
	w := make([]int64, privateWords)
	w[hdrSrc] = src
	w[hdrLabel] = label
	return view(w, 0)
}

// classFor picks the smallest block class, from minClass up, whose bytes
// hold the header, the filter, entries edge log entries and propBytes of
// properties.
func classFor(minClass, entries, propBytes int) int {
	for class := minClass; class < storage.NumClasses; class++ {
		if holds(storage.WordCap(class), entries, propBytes) {
			return class
		}
	}
	panic("tel: adjacency list exceeds maximum block size")
}

// holds reports whether a block of words words holds the header, its
// filter, entries edge log entries and propBytes of properties.
func holds(words, entries, propBytes int) bool {
	return (HeaderWords+bloom.WordsFor(words)+entries*EntryWords)*8+propBytes <= words*8
}

// At views block r of a as a TEL.
func At(a *storage.Allocator, r storage.Ref) TEL { return view(a.Words(r), r) }

func view(w []int64, r storage.Ref) TEL {
	return TEL{w: w, ref: r, entryBase: HeaderWords + bloom.WordsFor(len(w))}
}

// Ref returns the block the view is over; zero for a private list.
func (t *TEL) Ref() storage.Ref { return t.ref }

// filter views the block's Bloom filter words.
func (t *TEL) filter() bloom.Filter { return bloom.View(t.w[HeaderWords:t.entryBase]) }

// bytes views the block's words as bytes: properties are byte-packed into
// the same memory as the entries, and an unsafe.Slice view is how one Go
// allocation holds both — a separate []byte would be a second region with
// its own size class and slab. The view is never stored, so a TEL carries
// one slice header.
func (t *TEL) bytes() []byte {
	w := t.w
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// Src returns the source vertex this adjacency list belongs to.
func (t *TEL) Src() int64 { return t.w[hdrSrc] }

// Label returns the edge label of this adjacency list.
func (t *TEL) Label() int64 { return t.w[hdrLabel] }

// CommitTS returns the TEL's commit timestamp CT: the timestamp of the
// latest transaction that modified it. Writers compare their read epoch
// against CT to detect write-write conflicts cheaply (first-committer-wins)
// instead of scanning the log.
func (t *TEL) CommitTS() int64 { return atomic.LoadInt64(&t.w[hdrCT]) }

// Len returns the committed number of edge log entries (LS).
func (t *TEL) Len() int { return int(atomic.LoadInt64(&t.w[hdrLS])) }

// PropLen returns the committed property byte length (PS).
func (t *TEL) PropLen() int { return int(atomic.LoadInt64(&t.w[hdrPS])) }

// DeadBytes returns the bytes held by invalidated entries in this block:
// entry words plus property payload for every entry whose invalidation
// timestamp is a committed epoch. Zero means no entry in the block was
// ever invalidated, which is what Settled needs; nothing else reads it.
func (t *TEL) DeadBytes() int64 { return atomic.LoadInt64(&t.w[hdrDead]) }

// Settled reports whether the first n entries are exactly the committed
// entries and every one of them is visible at (tre, tid): tid is 0, n is
// LS, no commit after tre touched the list, and no entry was ever
// invalidated. The loads run LS, CT, DB — the order the package comment's
// argument needs.
func (t *TEL) Settled(n int, tre, tid int64) bool {
	return tid == 0 &&
		int64(n) == atomic.LoadInt64(&t.w[hdrLS]) &&
		atomic.LoadInt64(&t.w[hdrCT]) <= tre &&
		atomic.LoadInt64(&t.w[hdrDead]) == 0
}

// EntryDeadBytes returns the exact byte cost of entry i going dead: its
// fixed entry words plus its property payload.
func (t *TEL) EntryDeadBytes(i int) int64 {
	return EntryWords*8 + t.w[t.entryBase+i*EntryWords+3]&propSizeMask
}

// Publish atomically exposes n entries / propLen property bytes and stamps
// the commit timestamp — the apply-phase "update tail" step. The entry
// contents must already be fully written; the atomic LS store is the release
// barrier concurrent readers synchronise on.
func (t *TEL) Publish(n, propLen int, ts int64) {
	atomic.StoreInt64(&t.w[hdrCT], ts)
	atomic.StoreInt64(&t.w[hdrPS], int64(propLen))
	atomic.StoreInt64(&t.w[hdrLS], int64(n))
}

// Fits reports whether one more entry with propBytes of properties fits
// given the tentative sizes (n entries, propLen bytes already used): the
// end of entry n must not pass the start of the properties.
func (t *TEL) Fits(n, propLen, propBytes int) bool {
	return (t.entryBase+(n+1)*EntryWords)*8+propLen+propBytes <= len(t.w)*8
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
	words := t.w
	words[w+0] = dst
	propLen += len(props)
	b := t.bytes()
	copy(b[len(b)-propLen:], props)
	words[w+3] = int64(propLen)<<propOffShift | int64(len(props))
	// Timestamps are stored atomically: a concurrent reader racing past the
	// committed LS of a *previous* version must never observe a torn word.
	atomic.StoreInt64(&words[w+2], invalidation)
	atomic.StoreInt64(&words[w+1], creation)
	t.filter().Add(uint64(dst))
	if invalidation >= 0 {
		atomic.AddInt64(&t.w[hdrDead], t.EntryDeadBytes(n))
	}
	return propLen
}

// Dst returns entry i's destination vertex.
func (t *TEL) Dst(i int) int64 { return t.w[t.entryBase+i*EntryWords] }

// Creation returns entry i's creation timestamp.
func (t *TEL) Creation(i int) int64 {
	return atomic.LoadInt64(&t.w[t.entryBase+i*EntryWords+1])
}

// SetCreation atomically stores entry i's creation timestamp (the apply
// phase's -TID → TWE flip).
func (t *TEL) SetCreation(i int, ts int64) {
	atomic.StoreInt64(&t.w[t.entryBase+i*EntryWords+1], ts)
}

// Invalidation returns entry i's invalidation timestamp.
func (t *TEL) Invalidation(i int) int64 {
	return atomic.LoadInt64(&t.w[t.entryBase+i*EntryWords+2])
}

// SetInvalidation atomically stores entry i's invalidation timestamp. A
// committed timestamp (>= 0) adds the entry's bytes to the dead counter, so
// it must be set once per entry: a -TID mark may precede it, another
// committed timestamp may not.
//
// It is kept small enough to inline: the committer's apply phase calls it
// once per invalidated entry, on the commit path every writer waits on.
func (t *TEL) SetInvalidation(i int, ts int64) {
	atomic.StoreInt64(&t.w[t.entryBase+i*EntryWords+2], ts)
	if ts >= 0 {
		atomic.AddInt64(&t.w[hdrDead], t.EntryDeadBytes(i))
	}
}

// CASInvalidation atomically replaces entry i's invalidation timestamp if it
// still holds old. Used when aborting (revert -TID → NULL).
func (t *TEL) CASInvalidation(i int, old, new int64) bool {
	return atomic.CompareAndSwapInt64(&t.w[t.entryBase+i*EntryWords+2], old, new)
}

// Props returns entry i's property bytes (a sub-slice of the block; callers
// must copy if they retain it beyond the transaction).
func (t *TEL) Props(i int) []byte {
	ref := t.w[t.entryBase+i*EntryWords+3]
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
	return (t.ref.Off() + int64(t.entryBase+i*EntryWords)) / pageWords
}

// FirstPage returns the global page of the block's header.
func (t *TEL) FirstPage() int64 { return t.ref.Off() / pageWords }

// LastPage returns the global page of the block's final word.
func (t *TEL) LastPage() int64 {
	return (t.ref.Off() + int64(len(t.w)) - 1) / pageWords
}

// MayContain consults the embedded Bloom filter: false means dst was
// certainly never inserted into this block, so an insertion can skip the
// previous-version scan (the paper's "early rejection").
func (t *TEL) MayContain(dst int64) bool { return t.filter().MayContain(uint64(dst)) }

// FilterEmpty reports whether the block is too small to carry a filter.
func (t *TEL) FilterEmpty() bool { return t.entryBase == HeaderWords }

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
// smallest block class with at least twice t's words that also fits one
// more entry with propBytes of properties (paper §3: dynamic-array
// doubling, amortised O(1) appends), and returns the new block. Only
// placement (Place, New) picks the tightest class; growth by append keeps
// doubling. It carries the identical committed prefix, so swapping the
// index's Ref is safe mid-transaction; t's block is left as it was for
// readers still scanning it.
func (t *TEL) Upgrade(a *storage.Allocator, n, propLen, propBytes int) storage.Ref {
	r := a.Alloc(classFor(storage.ClassFor(2*len(t.w)), n+1, propLen+propBytes))
	nt := At(a, r)
	t.moveTo(&nt, n, propLen)
	return r
}

// Grow is Upgrade for a private list: it moves the list into Go-heap words
// of the first doubling of its size that fits one more entry with
// propBytes of properties, and returns the new view.
func (t *TEL) Grow(n, propLen, propBytes int) TEL {
	words := 2 * len(t.w)
	for !holds(words, n+1, propLen+propBytes) {
		words *= 2
	}
	nt := view(make([]int64, words), 0)
	t.moveTo(&nt, n, propLen)
	return nt
}

// Place moves a private list's n entries and propLen property bytes into
// the tightest block class of a that holds them, and returns the block.
func (t *TEL) Place(a *storage.Allocator, n, propLen int) storage.Ref {
	r := a.Alloc(classFor(0, n, propLen))
	nt := At(a, r)
	t.moveTo(&nt, n, propLen)
	return r
}

// moveTo copies t's header, its first n entries and its propLen property
// bytes into nt, then rebuilds nt's filter from the copied destinations.
// nt is not yet published — no other goroutine can reach its words — so
// every store is plain. The caller holds the list's vertex lock, or owns
// the private list, so no header word of t changes during the copy.
func (t *TEL) moveTo(nt *TEL, n, propLen int) {
	copy(nt.w[:HeaderWords], t.w[:HeaderWords])
	copy(nt.w[nt.entryBase:], t.w[t.entryBase:t.entryBase+n*EntryWords])
	nb, b := nt.bytes(), t.bytes()
	copy(nb[len(nb)-propLen:], b[len(b)-propLen:])
	f := nt.filter()
	for i := 0; i < n; i++ {
		f.Set(uint64(nt.Dst(i)))
	}
}

// CompactAppend copies entry i of src (with its properties) to slot n of t,
// re-packing properties below propLen. Returns the new property length.
// Used by compaction, which keeps only entries still visible to some epoch;
// an entry it keeps with a committed invalidation counts in t's DeadBytes.
func (t *TEL) CompactAppend(src *TEL, i, n, propLen int) int {
	return t.put(n, src.Dst(i), src.Creation(i), src.Invalidation(i), src.Props(i), propLen)
}

// Iter is a purely sequential scan over the first n entries of a TEL,
// newest first, yielding only entries visible at (tre, tid). It performs no
// allocation and no random access: visibility is decided from the two
// timestamps embedded in each fixed-size entry (paper §4, "Sequential
// adjacency list scans"). When the list is settled at the scan's epoch
// (see Settled), that decision is made once from the header at Scan and
// the iterator yields every entry without loading its timestamps.
type Iter struct {
	t        TEL
	i        int
	tre, tid int64
	settled  bool
}

// Scan returns an iterator over the first n entries (pass t.Len() for a
// committed snapshot scan, or the transaction's tentative count to include
// its own writes).
func (t *TEL) Scan(n int, tre, tid int64) Iter {
	return Iter{t: *t, i: n, tre: tre, tid: tid, settled: t.Settled(n, tre, tid)}
}

// TEL returns the list the iterator scans.
func (it *Iter) TEL() *TEL { return &it.t }

// Next advances to the next visible entry, returning its index, or -1 when
// the scan is complete.
func (it *Iter) Next() int {
	for it.i--; it.i >= 0; it.i-- {
		if it.settled || mvcc.Visible(it.t.Creation(it.i), it.t.Invalidation(it.i), it.tre, it.tid) {
			return it.i
		}
	}
	return -1
}

// NextWhere is Next with a destination predicate pushed into the scan
// loop: entries whose destination fails keep are skipped before the
// visibility check — one plain word load against two atomic timestamp
// loads, or none on a settled list — which is what makes predicate
// pushdown cheaper than materialize-then-filter. Because the predicate
// also runs on entries that would fail the visibility check, keep must be
// a pure function of the destination ID (the traversal planner only fuses
// such predicates).
func (it *Iter) NextWhere(keep func(dst int64) bool) int {
	for it.i--; it.i >= 0; it.i-- {
		if !keep(it.t.Dst(it.i)) {
			continue
		}
		if it.settled || mvcc.Visible(it.t.Creation(it.i), it.t.Invalidation(it.i), it.tre, it.tid) {
			return it.i
		}
	}
	return -1
}

package tel

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"livegraph/internal/bloom"
	"livegraph/internal/mvcc"
	"livegraph/internal/storage"
)

// newTEL allocates a list with New and views it.
func newTEL(a *storage.Allocator, src, label int64, minEntries, minPropBytes int) TEL {
	return At(a, New(a, src, label, minEntries, minPropBytes))
}

func TestNewMinimalBlockIsOneCacheLine(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 1, 0)
	// 64-byte block: 6 header words + no filter + 4 entry words = 10 words
	// does NOT fit in 8 words, so the minimal single-edge block is the
	// class of 10 words (128 B) in this layout. Verify it holds exactly
	// the advertised entry.
	if !tl.Fits(0, 0, 0) {
		t.Fatal("minimal TEL holds no entry")
	}
	if want := storage.ClassFor(HeaderWords + EntryWords); tl.Ref().Class() != want {
		t.Fatalf("minimal TEL uses class %d (%d words), want %d (%d words)",
			tl.Ref().Class(), storage.WordCap(tl.Ref().Class()), want, storage.WordCap(want))
	}
}

func TestAppendPublishScan(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 7, 0, 8, 256)
	n, pl := 0, 0
	for i := 0; i < 5; i++ {
		pl = tl.Append(n, int64(100+i), -42, []byte{byte(i)}, pl)
		n++
	}
	// Before publish, a reader at any epoch sees nothing.
	it := tl.Scan(tl.Len(), 10, 0)
	if it.Next() != -1 {
		t.Fatal("unpublished entries visible to reader")
	}
	// The writing transaction (tid 42) sees its own writes.
	it = tl.Scan(n, 10, 42)
	count := 0
	for it.Next() != -1 {
		count++
	}
	if count != 5 {
		t.Fatalf("writer sees %d own entries, want 5", count)
	}
	// Apply phase: flip timestamps then publish.
	for i := 0; i < n; i++ {
		tl.SetCreation(i, 3)
	}
	tl.Publish(n, pl, 3)
	if tl.Len() != 5 || tl.PropLen() != 5 || tl.CommitTS() != 3 {
		t.Fatalf("publish: len=%d props=%d ct=%d", tl.Len(), tl.PropLen(), tl.CommitTS())
	}
	// Reader at epoch 3 sees all, epoch 2 sees none.
	for _, tc := range []struct {
		tre  int64
		want int
	}{{3, 5}, {2, 0}, {100, 5}} {
		it := tl.Scan(tl.Len(), tc.tre, 0)
		got := 0
		for it.Next() != -1 {
			got++
		}
		if got != tc.want {
			t.Fatalf("tre=%d: got %d entries, want %d", tc.tre, got, tc.want)
		}
	}
}

func TestScanNewestFirstAndProps(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 8, 256)
	n, pl := 0, 0
	for i := 0; i < 4; i++ {
		pl = tl.Append(n, int64(10+i), 1, []byte(fmt.Sprintf("p%d", i)), pl)
		n++
	}
	tl.Publish(n, pl, 1)
	it := tl.Scan(tl.Len(), 1, 0)
	var dsts []int64
	var props []string
	for {
		i := it.Next()
		if i < 0 {
			break
		}
		dsts = append(dsts, tl.Dst(i))
		props = append(props, string(tl.Props(i)))
	}
	want := []int64{13, 12, 11, 10}
	for i := range want {
		if dsts[i] != want[i] {
			t.Fatalf("scan order %v, want %v", dsts, want)
		}
		if props[i] != fmt.Sprintf("p%d", want[i]-10) {
			t.Fatalf("props %v", props)
		}
	}
}

func TestInvalidationHidesOldVersion(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 8, 128)
	// Edge to 50 created at ts 1.
	pl := tl.Append(0, 50, 1, []byte("v1"), 0)
	tl.Publish(1, pl, 1)
	// Update at ts 2: invalidate entry 0, append new version.
	tl.SetInvalidation(0, 2)
	pl = tl.Append(1, 50, 2, []byte("v2"), pl)
	tl.Publish(2, pl, 2)

	// Reader at epoch 1 sees v1; at epoch 2 sees v2 only.
	i := tl.FindLatest(50, tl.Len(), 1, 0)
	if i != 0 || string(tl.Props(i)) != "v1" {
		t.Fatalf("epoch 1: entry %d", i)
	}
	i = tl.FindLatest(50, tl.Len(), 2, 0)
	if i != 1 || string(tl.Props(i)) != "v2" {
		t.Fatalf("epoch 2: entry %d", i)
	}
	// A full scan at epoch 2 yields exactly one visible entry for dst 50.
	it := tl.Scan(tl.Len(), 2, 0)
	count := 0
	for it.Next() != -1 {
		count++
	}
	if count != 1 {
		t.Fatalf("epoch 2 scan sees %d entries, want 1", count)
	}
}

func TestBloomEarlyRejection(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 64, 1024)
	if tl.FilterEmpty() {
		t.Skip("block too small for a filter at this class")
	}
	pl := 0
	for i := 0; i < 32; i++ {
		pl = tl.Append(i, int64(i*2), 1, nil, pl)
	}
	tl.Publish(32, pl, 1)
	for i := 0; i < 32; i++ {
		if !tl.MayContain(int64(i * 2)) {
			t.Fatalf("false negative for dst %d", i*2)
		}
	}
	// Odd destinations were never added; most must be rejected.
	rejected := 0
	for i := 0; i < 1000; i++ {
		if !tl.MayContain(int64(i*2 + 1)) {
			rejected++
		}
	}
	if rejected < 900 {
		t.Fatalf("bloom rejected only %d/1000 absent keys", rejected)
	}
}

func TestUpgradeCopiesPrefix(t *testing.T) {
	a := storage.NewAllocator()
	small := newTEL(a, 9, 3, 4, 64)
	n, pl := 0, 0
	for i := 0; i < 4; i++ {
		pl = small.Append(n, int64(i), 1, []byte{byte(i), byte(i)}, pl)
		n++
	}
	small.Publish(n, pl, 1)
	small.SetInvalidation(1, 2) // one deleted version
	if small.DeadBytes() != EntryWords*8+2 {
		t.Fatalf("DeadBytes after a committed invalidation = %d, want %d", small.DeadBytes(), EntryWords*8+2)
	}
	// A tentative append past the committed prefix moves with it.
	pl = small.Append(n, 4, -7, []byte("tentative"), pl)
	n++

	big := At(a, small.Upgrade(a, n, pl, 300))

	if len(big.w) < 2*len(small.w) {
		t.Fatalf("upgrade from %d to %d words, want at least double", len(small.w), len(big.w))
	}
	if !big.Fits(n, pl, 300) {
		t.Fatal("upgraded block does not fit the entry it was sized for")
	}
	if big.Src() != 9 || big.Label() != 3 {
		t.Fatal("header not copied")
	}
	if big.Len() != small.Len() || big.PropLen() != small.PropLen() || big.CommitTS() != small.CommitTS() ||
		big.DeadBytes() != small.DeadBytes() {
		t.Fatal("committed sizes not copied")
	}
	// The old block's words are untouched for readers still scanning it.
	if small.Len() != 4 || string(small.Props(4)) != "tentative" {
		t.Fatal("upgrade changed the source block")
	}
	for i := 0; i < n; i++ {
		if big.Dst(i) != small.Dst(i) || big.Creation(i) != small.Creation(i) ||
			big.Invalidation(i) != small.Invalidation(i) ||
			!bytes.Equal(big.Props(i), small.Props(i)) {
			t.Fatalf("entry %d mismatch after copy", i)
		}
	}
	// Bloom filter must be rebuilt (no false negatives on copied dsts).
	for i := 0; i < n; i++ {
		if !big.MayContain(int64(i)) {
			t.Fatalf("bloom false negative after upgrade for %d", i)
		}
	}
}

// TestPrivateGrowsAndPlaces: a private list has no Ref and grows by
// doubling in Go-heap words; Place copies it once into the tightest class
// that holds it, with nothing committed, every entry and property intact
// and the filter rebuilt for the new size.
func TestPrivateGrowsAndPlaces(t *testing.T) {
	a := storage.NewAllocator()
	tl := Private(9, 3)
	n, pl := 0, 0
	for i := 0; i < 120; i++ {
		props := []byte(fmt.Sprint("p", i))
		if !tl.Fits(n, pl, len(props)) {
			words := len(tl.w)
			tl = tl.Grow(n, pl, len(props))
			if len(tl.w) != 2*words || tl.Ref() != 0 {
				t.Fatalf("private growth from %d words to %d, ref %d; want %d words, no ref", words, len(tl.w), tl.Ref(), 2*words)
			}
		}
		pl = tl.Append(n, int64(1000+i), -7, props, pl)
		n++
	}
	if a.Stats().AllocatedBlocks != 0 {
		t.Fatal("a private list allocated arena blocks")
	}
	placed := At(a, tl.Place(a, n, pl))
	if c := placed.Ref().Class(); c != classFor(0, n, pl) || holds(storage.WordCap(c-1), n, pl) {
		t.Fatalf("placed in class %d, want the tightest, %d", c, classFor(0, n, pl))
	}
	if placed.Src() != 9 || placed.Label() != 3 || placed.Len() != 0 || placed.PropLen() != 0 ||
		placed.CommitTS() != 0 || placed.DeadBytes() != 0 {
		t.Fatal("placed header: want the list's source and label, nothing committed")
	}
	if bloom.WordsFor(len(placed.w)) == bloom.WordsFor(len(tl.w)) {
		t.Fatalf("placed and private lists have the same filter size; the test checks nothing about the rebuild")
	}
	for i := 0; i < n; i++ {
		if placed.Dst(i) != int64(1000+i) || placed.Creation(i) != -7 || string(placed.Props(i)) != fmt.Sprint("p", i) {
			t.Fatalf("entry %d: dst %d creation %d props %q", i, placed.Dst(i), placed.Creation(i), placed.Props(i))
		}
		if !placed.MayContain(int64(1000 + i)) {
			t.Fatalf("bloom false negative after placement for %d", 1000+i)
		}
	}
}

func TestCompactAppendRepacksProps(t *testing.T) {
	a := storage.NewAllocator()
	src := newTEL(a, 1, 0, 8, 256)
	pl := 0
	pl = src.Append(0, 10, 1, []byte("aaaa"), pl)
	pl = src.Append(1, 11, 1, []byte("bbbb"), pl)
	pl = src.Append(2, 12, 1, []byte("cccc"), pl)
	src.Publish(3, pl, 1)

	dst := newTEL(a, 1, 0, 8, 256)
	// Keep only entries 0 and 2.
	npl := dst.CompactAppend(&src, 0, 0, 0)
	npl = dst.CompactAppend(&src, 2, 1, npl)
	dst.Publish(2, npl, 1)

	if dst.Len() != 2 {
		t.Fatal("compacted length wrong")
	}
	if string(dst.Props(0)) != "aaaa" || string(dst.Props(1)) != "cccc" {
		t.Fatalf("props %q %q", dst.Props(0), dst.Props(1))
	}
	if dst.PropLen() != 8 {
		t.Fatalf("prop len %d, want 8 (repacked)", dst.PropLen())
	}
}

func TestFits(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 4, 32)
	n, pl := 0, 0
	for tl.Fits(n, pl, 4) {
		pl = tl.Append(n, int64(n), 1, []byte("abcd"), pl)
		n++
	}
	if n == 0 {
		t.Fatal("nothing fit")
	}
	// Entry end and property start meet without crossing: every property
	// still reads back intact.
	if (HeaderWords+bloom.WordsFor(len(tl.w))+n*EntryWords)*8+pl > len(tl.w)*8 {
		t.Fatal("entries and properties overlap")
	}
	for i := 0; i < n; i++ {
		if string(tl.Props(i)) != "abcd" || tl.Dst(i) != int64(i) {
			t.Fatalf("entry %d overwritten", i)
		}
	}
}

// TestHeaderSizes pins the Go-side footprint of a list: the label index
// holds one storage.Ref per adjacency list, and a TEL view is copied into
// every iterator, so a field added to either shows up here and in review.
func TestHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(storage.Ref(0)); got != 8 {
		t.Errorf("storage.Ref is %d bytes, want 8 (offset and class in one word)", got)
	}
	if got := unsafe.Sizeof(TEL{}); got != 40 {
		t.Errorf("tel.TEL is %d bytes, want 40 (words, ref, entry base)", got)
	}
}

// TestFitsAtTheBoundary: an entry whose end meets the start of the
// properties exactly fits, one byte more does not, and classFor agrees
// with Fits: it picks the smallest class whose bytes past the header and
// filter hold the entry and its properties.
func TestFitsAtTheBoundary(t *testing.T) {
	a := storage.NewAllocator()
	room := func(class int) int { // bytes past the header and filter
		words := storage.WordCap(class)
		return (words - HeaderWords - bloom.WordsFor(words)) * 8
	}
	tightest := func(bytes int) int {
		c := 0
		for room(c) < bytes {
			c++
		}
		return c
	}
	// Classes 1-19 run from 128 B to 4 KiB, through every doubling of the
	// former power-of-two layout (256 B, 512 B, ... are classes 3, 7, 11, ...).
	for class := 1; class <= 19; class++ {
		words := storage.WordCap(class)
		entryEnd := (HeaderWords + bloom.WordsFor(words) + EntryWords) * 8 // after entry 0
		for _, size := range []int{0, 1, 31, 32, 33, words*8 - entryEnd} {
			pl := words*8 - entryEnd - size // bytes already used: the new ones end at entryEnd
			if pl < 0 {
				continue
			}
			t.Run(fmt.Sprintf("class=%d/props=%d", class, size), func(t *testing.T) {
				tl := At(a, a.Alloc(class))
				if !tl.Fits(0, pl, size) {
					t.Fatalf("entry end == property start does not fit")
				}
				if tl.Fits(0, pl+1, size) {
					t.Fatalf("one byte past the property start fits")
				}
				need := EntryWords*8 + pl + size
				if got, want := classFor(0, 1, pl+size), tightest(need); got != want || got > class {
					t.Fatalf("classFor(1 entry, %d B) = %d, want %d, at most %d", pl+size, got, want, class)
				}
				if got, want := classFor(0, 1, pl+size+1), tightest(need+1); got != want || got <= class {
					t.Fatalf("classFor(1 entry, %d B) = %d, want %d, above %d", pl+size+1, got, want, class)
				}
				// Written at the boundary, neither side overwrites the other.
				props := bytes.Repeat([]byte{0xA5}, size)
				if got := tl.Append(0, 77, 3, props, pl); got != pl+size {
					t.Fatalf("Append returned property length %d, want %d", got, pl+size)
				}
				if tl.Dst(0) != 77 || tl.Creation(0) != 3 || tl.Invalidation(0) != mvcc.NullTS || !bytes.Equal(tl.Props(0), props) {
					t.Fatalf("entry and properties overlap: dst %d creation %d props %x", tl.Dst(0), tl.Creation(0), tl.Props(0))
				}
				a.Free(tl.Ref())
			})
		}
	}
}

func TestFindLatestOwnWrites(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 8, 128)
	pl := tl.Append(0, 5, 1, []byte("old"), 0)
	tl.Publish(1, pl, 1)

	const tid = 77
	// Transaction tid updates edge 5: invalidate entry 0 with -tid, append
	// private new version.
	tl.SetInvalidation(0, -tid)
	pl = tl.Append(1, 5, -tid, []byte("new"), pl)

	// The writer finds its own new version.
	if i := tl.FindLatest(5, 2, 1, tid); i != 1 {
		t.Fatalf("writer FindLatest = %d, want 1", i)
	}
	// Another reader still finds the committed version.
	if i := tl.FindLatest(5, tl.Len(), 1, 99); i != 0 {
		t.Fatalf("reader FindLatest = %d, want 0", i)
	}
	// Abort: revert invalidation.
	if !tl.CASInvalidation(0, -tid, mvcc.NullTS) {
		t.Fatal("CAS revert failed")
	}
	if i := tl.FindLatest(5, tl.Len(), 1, 99); i != 0 {
		t.Fatal("entry lost after abort revert")
	}
}

// TestConcurrentReadDuringPublish hammers the publish/scan race: readers
// must only ever see 0 or k*batch committed entries, never a torn state,
// and intact properties while the writer packs the next ones right below
// them in the same words.
func TestConcurrentReadDuringPublish(t *testing.T) {
	a := storage.NewAllocator()
	const batches, batch = 32, 4
	tl := newTEL(a, 1, 0, batches*batch, 4096)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tre := int64(1 << 40) // far future: sees all committed
				it := tl.Scan(tl.Len(), tre, 0)
				count := 0
				for {
					i := it.Next()
					if i < 0 {
						break
					}
					c := tl.Creation(i)
					if c <= 0 {
						errs <- fmt.Sprintf("saw uncommitted creation %d", c)
						return
					}
					if p := tl.Props(i); !bytes.Equal(p, publishProps(tl.Dst(i))) {
						errs <- fmt.Sprintf("entry %d props %x", i, p)
						return
					}
					count++
				}
				if count%batch != 0 {
					errs <- fmt.Sprintf("torn batch: %d entries", count)
					return
				}
			}
		}()
	}
	n, pl := 0, 0
	for b := 0; b < batches; b++ {
		start := n
		for i := 0; i < batch; i++ {
			pl = tl.Append(n, int64(n), -1000, publishProps(int64(n)), pl)
			n++
		}
		ts := int64(b + 1)
		for i := start; i < n; i++ {
			tl.SetCreation(i, ts)
		}
		tl.Publish(n, pl, ts)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// publishProps is entry dst's properties in TestConcurrentReadDuringPublish:
// 0 to 6 bytes, so consecutive payloads share words at every alignment.
func publishProps(dst int64) []byte { return bytes.Repeat([]byte{byte(dst)}, int(dst%7)) }

func TestScanVisibilityProperty(t *testing.T) {
	// Build a TEL with k versions of the same edge, each [i, i+1) lifetime;
	// at any epoch e < k exactly one version is visible.
	a := storage.NewAllocator()
	const k = 16
	tl := newTEL(a, 1, 0, k, 256)
	pl := 0
	for i := 0; i < k; i++ {
		pl = tl.Append(i, 99, int64(i+1), []byte{byte(i)}, pl)
		if i > 0 {
			tl.SetInvalidation(i-1, int64(i+1))
		}
	}
	tl.Publish(k, pl, k)
	f := func(e uint8) bool {
		tre := int64(e%k) + 1
		i := tl.FindLatest(99, tl.Len(), tre, 0)
		return i == int(tre-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSequentialScan(b *testing.B) {
	a := storage.NewAllocator()
	const n = 1024
	tl := newTEL(a, 1, 0, n, n)
	pl := 0
	for i := 0; i < n; i++ {
		pl = tl.Append(i, int64(i), 1, nil, pl)
	}
	tl.Publish(n, pl, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tl.Scan(tl.Len(), 1, 0)
		for it.Next() != -1 {
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/edge")
}

func BenchmarkAppend(b *testing.B) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 1<<20, 8)
	n, pl := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tl.Fits(n, pl, 0) {
			n, pl = 0, 0
		}
		pl = tl.Append(n, int64(i), -1, nil, pl)
		n++
	}
}

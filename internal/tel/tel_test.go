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

func newHandle() *storage.Handle { return storage.NewAllocator(0).NewHandle() }

func TestNewMinimalBlockIsOneCacheLine(t *testing.T) {
	h := newHandle()
	tl := New(h, 1, 0, 1, 0)
	// 64-byte block: 6 header words + no filter + 4 entry words = 10 words
	// does NOT fit in 8 words, so the minimal single-edge block is class 1
	// (128 B) in this layout. Verify it holds exactly the advertised entry.
	if !tl.Fits(0, 0, 0) {
		t.Fatal("minimal TEL holds no entry")
	}
	if tl.Block.Class > 1 {
		t.Fatalf("minimal TEL uses class %d, want <= 1", tl.Block.Class)
	}
}

func TestAppendPublishScan(t *testing.T) {
	h := newHandle()
	tl := New(h, 7, 0, 8, 256)
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
	h := newHandle()
	tl := New(h, 1, 0, 8, 256)
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
	h := newHandle()
	tl := New(h, 1, 0, 8, 128)
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
	h := newHandle()
	tl := New(h, 1, 0, 64, 1024)
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
	h := newHandle()
	small := New(h, 9, 3, 4, 64)
	n, pl := 0, 0
	for i := 0; i < 4; i++ {
		pl = small.Append(n, int64(i), 1, []byte{byte(i), byte(i)}, pl)
		n++
	}
	small.Publish(n, pl, 1)
	small.SetInvalidation(1, 2) // one deleted version
	small.AddDeadBytes(EntryWords*8 + 2)
	// A tentative append past the committed prefix moves with it.
	pl = small.Append(n, 4, -7, []byte("tentative"), pl)
	n++

	big := small.Upgrade(h, n, pl, 300)

	if big.Block.Class <= small.Block.Class {
		t.Fatalf("upgrade from class %d to %d", small.Block.Class, big.Block.Class)
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

func TestCompactAppendRepacksProps(t *testing.T) {
	h := newHandle()
	src := New(h, 1, 0, 8, 256)
	pl := 0
	pl = src.Append(0, 10, 1, []byte("aaaa"), pl)
	pl = src.Append(1, 11, 1, []byte("bbbb"), pl)
	pl = src.Append(2, 12, 1, []byte("cccc"), pl)
	src.Publish(3, pl, 1)

	dst := New(h, 1, 0, 8, 256)
	// Keep only entries 0 and 2.
	npl := dst.CompactAppend(src, 0, 0, 0)
	npl = dst.CompactAppend(src, 2, 1, npl)
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
	h := newHandle()
	tl := New(h, 1, 0, 4, 32)
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
	if (HeaderWords+bloom.WordsFor(len(tl.Block.Words))+n*EntryWords)*8+pl > len(tl.Block.Words)*8 {
		t.Fatal("entries and properties overlap")
	}
	for i := 0; i < n; i++ {
		if string(tl.Props(i)) != "abcd" || tl.Dst(i) != int64(i) {
			t.Fatalf("entry %d overwritten", i)
		}
	}
}

// TestHeaderSizes pins the Go-side footprint of a list: every TEL and
// block header is on the heap once per adjacency list, so a field added to
// either shows up here and in review.
func TestHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(TEL{}); got != 40 {
		t.Errorf("tel.TEL is %d bytes, want 40 (block pointer, entry base, filter view)", got)
	}
	if got := unsafe.Sizeof(storage.Block{}); got != 40 {
		t.Errorf("storage.Block is %d bytes, want 40 (words, class, arena offset)", got)
	}
}

// TestFitsAtTheBoundary: an entry whose end meets the start of the
// properties exactly fits, one byte more does not, and classFor agrees
// with Fits on which class that is.
func TestFitsAtTheBoundary(t *testing.T) {
	h := newHandle()
	for class := 1; class <= 6; class++ {
		words := storage.WordCap(class)
		entryEnd := (HeaderWords + bloom.WordsFor(words) + EntryWords) * 8 // after entry 0
		for _, size := range []int{0, 1, 31, 32, 33, words*8 - entryEnd} {
			pl := words*8 - entryEnd - size // bytes already used: the new ones end at entryEnd
			if pl < 0 {
				continue
			}
			t.Run(fmt.Sprintf("class=%d/props=%d", class, size), func(t *testing.T) {
				tl := wrap(h.Alloc(class))
				if !tl.Fits(0, pl, size) {
					t.Fatalf("entry end == property start does not fit")
				}
				if tl.Fits(0, pl+1, size) {
					t.Fatalf("one byte past the property start fits")
				}
				if got := classFor(0, 1, pl+size); got != class {
					t.Fatalf("classFor(1 entry, %d B) = %d, want %d", pl+size, got, class)
				}
				if got := classFor(0, 1, pl+size+1); got != class+1 {
					t.Fatalf("classFor(1 entry, %d B) = %d, want %d", pl+size+1, got, class+1)
				}
				// Written at the boundary, neither side overwrites the other.
				props := bytes.Repeat([]byte{0xA5}, size)
				if got := tl.Append(0, 77, 3, props, pl); got != pl+size {
					t.Fatalf("Append returned property length %d, want %d", got, pl+size)
				}
				if tl.Dst(0) != 77 || tl.Creation(0) != 3 || tl.Invalidation(0) != mvcc.NullTS || !bytes.Equal(tl.Props(0), props) {
					t.Fatalf("entry and properties overlap: dst %d creation %d props %x", tl.Dst(0), tl.Creation(0), tl.Props(0))
				}
				h.Free(tl.Block)
			})
		}
	}
}

func TestFindLatestOwnWrites(t *testing.T) {
	h := newHandle()
	tl := New(h, 1, 0, 8, 128)
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
	h := newHandle()
	const batches, batch = 32, 4
	tl := New(h, 1, 0, batches*batch, 4096)
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
	h := newHandle()
	const k = 16
	tl := New(h, 1, 0, k, 256)
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
	h := newHandle()
	const n = 1024
	tl := New(h, 1, 0, n, n)
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
	h := newHandle()
	tl := New(h, 1, 0, 1<<20, 8)
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

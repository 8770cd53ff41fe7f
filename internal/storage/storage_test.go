package storage

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestClassFor: the class table is one, two and three cache lines, then
// four classes per doubling, each a whole number of cache lines, and
// ClassFor names the smallest class that holds a size.
func TestClassFor(t *testing.T) {
	var bytes []int
	for c := 0; c < 12; c++ {
		bytes = append(bytes, WordCap(c)*8)
	}
	if want := []int{64, 128, 192, 256, 320, 384, 448, 512, 640, 768, 896, 1024}; fmt.Sprint(bytes) != fmt.Sprint(want) {
		t.Errorf("first classes %v B, want %v", bytes, want)
	}
	for c := 0; c < NumClasses; c++ {
		w := WordCap(c)
		if w%MinBlockWords != 0 || (c > 0 && w <= WordCap(c-1)) {
			t.Fatalf("class %d: %d words, not whole cache lines above class %d's %d", c, w, c-1, WordCap(c-1))
		}
		if c >= 3 && c+4 < NumClasses && WordCap(c+4) != 2*w {
			t.Fatalf("class %d + 4 holds %d words, want twice %d", c, WordCap(c+4), w)
		}
		if got := ClassFor(w); got != c {
			t.Fatalf("ClassFor(%d) = %d, want %d", w, got, c)
		}
		if got := ClassFor(w + 1); c+1 < NumClasses && got != c+1 {
			t.Fatalf("ClassFor(%d) = %d, want %d", w+1, got, c+1)
		}
	}
	if got := ClassFor(0); got != 0 {
		t.Errorf("ClassFor(0) = %d, want 0", got)
	}
	if c := ClassFor(slabWords); WordCap(c) != slabWords {
		t.Errorf("no class of exactly one slab: ClassFor(%d) holds %d words", slabWords, WordCap(c))
	}
}

func TestClassForProperty(t *testing.T) {
	f := func(n uint32) bool {
		words := int(n)
		c := ClassFor(words)
		if WordCap(c) < words {
			return false
		}
		// minimal: previous class must be too small (unless class 0)
		return c == 0 || WordCap(c-1) < words
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocZeroedAndSized(t *testing.T) {
	a := NewAllocator()
	for class := 0; class < 12; class++ {
		b := a.Alloc(class)
		if len(a.Words(b)) != WordCap(class) {
			t.Fatalf("class %d: got %d words, want %d", class, len(a.Words(b)), WordCap(class))
		}
		for i, w := range a.Words(b) {
			if w != 0 {
				t.Fatalf("class %d word %d not zero", class, i)
			}
		}
		a.Words(b)[0] = 42
		a.Free(b)
	}
}

// TestRecycleThroughPrivateList: there is one free list per class, so a
// block of class k that a caller frees comes back, zeroed, from that
// caller's next Alloc(k), small and large classes alike.
func TestRecycleThroughPrivateList(t *testing.T) {
	a := NewAllocator()
	for _, class := range []int{2, 5, ClassFor(slabWords), ClassFor(2 * slabWords)} {
		b1 := a.Alloc(class)
		a.Words(b1)[3] = 99
		a.Free(b1)
		b2 := a.Alloc(class)
		if b2 != b1 {
			t.Fatalf("class %d: freed block not reused by the next Alloc", class)
		}
		if a.Words(b2)[3] != 0 {
			t.Fatalf("class %d: recycled block must be zeroed", class)
		}
	}
}

// TestRecycleThroughSharedList: the per-class free list is shared by every
// goroutine, so a block freed on one is what the next Alloc on another
// gets.
func TestRecycleThroughSharedList(t *testing.T) {
	a := NewAllocator()
	for _, class := range []int{1, 5} {
		freed := make(chan Ref)
		go func() {
			b := a.Alloc(class)
			a.Words(b)[0] = 7
			a.Free(b)
			freed <- b
		}()
		b1 := <-freed
		b2 := a.Alloc(class)
		if b2 != b1 {
			t.Fatalf("class %d: block freed on another goroutine not reused", class)
		}
		if a.Words(b2)[0] != 0 {
			t.Fatalf("class %d: recycled block must be zeroed", class)
		}
	}
}

func TestDeferFreeReclaim(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(3)
	a.DeferFree(b, 10)
	if n, _ := a.Reclaim(10); n != 0 {
		t.Fatalf("epoch 10 still visible at minActive 10, reclaimed %d", n)
	}
	if a.PendingDeferred() != 1 {
		t.Fatal("block should still be pending")
	}
	n, words := a.Reclaim(11)
	if n != 1 {
		t.Fatalf("want 1 reclaimed, got %d", n)
	}
	if want := int64(WordCap(3)); words != want {
		t.Fatalf("reclaimed words = %d, want %d", words, want)
	}
	if a.PendingDeferred() != 0 {
		t.Fatal("no blocks should be pending")
	}
	// The reclaimed block must be reusable.
	b2 := a.Alloc(3)
	if b2 != b {
		t.Fatal("reclaimed block should be reused")
	}
}

func TestStatsAccounting(t *testing.T) {
	a := NewAllocator()
	var blocks []Ref
	for i := 0; i < 10; i++ {
		blocks = append(blocks, a.Alloc(1))
	}
	s := a.Stats()
	if s.AllocatedBlocks != 10 {
		t.Fatalf("AllocatedBlocks = %d, want 10", s.AllocatedBlocks)
	}
	if s.AllocatedWords != int64(10*WordCap(1)) {
		t.Fatalf("AllocatedWords = %d", s.AllocatedWords)
	}
	if s.ClassCounts[1] != 10 {
		t.Fatalf("ClassCounts[1] = %d", s.ClassCounts[1])
	}
	for _, b := range blocks {
		a.Free(b)
	}
	s = a.Stats()
	if s.AllocatedBlocks != 0 {
		t.Fatalf("AllocatedBlocks after free = %d", s.AllocatedBlocks)
	}
	if s.RecycledBlocks != 10 {
		t.Fatalf("RecycledBlocks = %d", s.RecycledBlocks)
	}
}

func TestHugeBlockGetsDedicatedSlab(t *testing.T) {
	a := NewAllocator()
	class := ClassFor(slabWords + 1)
	b := a.Alloc(class)
	if len(a.Words(b)) < slabWords {
		t.Fatal("huge block too small")
	}
	a.Free(b)
	b2 := a.Alloc(class)
	if b2 != b {
		t.Fatal("huge block should recycle")
	}
}

// TestAboveSlabClassReservesWholeSlabs: a class larger than a slab and not
// a whole number of slabs still reserves whole slabs, so the slabs after it
// start on slab boundaries, and every block allocated before and after it
// resolves to its own words.
func TestAboveSlabClassReservesWholeSlabs(t *testing.T) {
	a := NewAllocator()
	class := ClassFor(slabWords + 1)
	if WordCap(class)%slabWords == 0 {
		t.Fatalf("class %d holds %d words, a whole number of slabs", class, WordCap(class))
	}
	var refs []Ref
	alloc := func(class int) {
		r := a.Alloc(class)
		w := a.Words(r)
		w[0], w[len(w)-1] = int64(r), ^int64(r)
		refs = append(refs, r)
	}
	alloc(0)
	alloc(class)
	if s := a.Stats(); s.SlabWords%slabWords != 0 {
		t.Fatalf("%d words reserved, not whole slabs", s.SlabWords)
	}
	small := ClassFor(slabWords / 8)
	for i := 0; i < 20; i++ { // two and a half slabs more, then another big one
		alloc(small)
	}
	alloc(class)
	alloc(0)
	for _, r := range refs {
		if w := a.Words(r); len(w) != WordCap(r.Class()) || w[0] != int64(r) || w[len(w)-1] != ^int64(r) {
			t.Errorf("ref at offset %d, class %d resolves to other words", r.Off(), r.Class())
		}
	}
	if s := a.Stats(); s.SlabWords%slabWords != 0 {
		t.Fatalf("%d words reserved, not whole slabs", s.SlabWords)
	}
}

// TestSlabTailGoesToFreeLists: a block that does not fit the rest of the
// current slab opens the next one, and the rest is cut into free blocks
// instead of stranded, so everything reserved is live, recycled, or the
// uncarved rest of the newest slab.
func TestSlabTailGoesToFreeLists(t *testing.T) {
	a := NewAllocator()
	half := ClassFor(slabWords / 2)
	a.Alloc(0)
	a.Alloc(half)
	if b := a.Alloc(half); b.Off() != slabWords {
		t.Fatalf("second half-slab block at arena offset %d, want the next slab's start %d", b.Off(), slabWords)
	}
	s := a.Stats()
	if s.RecycledWords != slabWords/2-MinBlockWords {
		t.Fatalf("%d words of the first slab's tail recycled, want %d", s.RecycledWords, slabWords/2-MinBlockWords)
	}
	if uncarved := s.SlabWords - s.AllocatedWords - s.RecycledWords; uncarved != slabWords/2 {
		t.Fatalf("%d words uncarved, want the newest slab's rest %d", uncarved, slabWords/2)
	}
	if b := a.Alloc(half - 1); b.Off() >= slabWords {
		t.Fatalf("block of the class below half a slab carved at arena offset %d, not from the first slab's tail", b.Off())
	}
}

// TestZeroRefNamesNoBlock: the zero Ref is "none" — Free and DeferFree
// ignore it — and no block is ever named by it, the arena's first
// included.
func TestZeroRefNamesNoBlock(t *testing.T) {
	a := NewAllocator()
	r := a.Alloc(0)
	if r == 0 || r.Off() != 0 || r.Class() != 0 {
		t.Fatalf("first block: ref %#x, offset %d, class %d; want a nonzero ref at offset 0, class 0", uint64(r), r.Off(), r.Class())
	}
	a.Free(0)
	a.DeferFree(0, 1)
	if s := a.Stats(); s.AllocatedBlocks != 1 || s.RecycledBlocks != 0 || a.PendingDeferred() != 0 {
		t.Fatalf("freeing the zero Ref changed the allocator: %+v, %d deferred", s, a.PendingDeferred())
	}
}

// TestRefsResolveWhileTheDirectoryGrows: a reader resolving Refs while
// another goroutine grows the arena by slabs and dedicated allocations
// always finds each block's own words.
func TestRefsResolveWhileTheDirectoryGrows(t *testing.T) {
	a := NewAllocator()
	refs := make(chan Ref)
	go func() {
		defer close(refs)
		for i := 0; i < 400; i++ {
			class := ClassFor(slabWords / 16) // 64 KiB: sixteen to a slab
			if i%100 == 50 {
				class = ClassFor(2*slabWords + 1) // spans four slabs
			}
			r := a.Alloc(class)
			w := a.Words(r)
			w[0], w[len(w)-1] = int64(r), ^int64(r)
			refs <- r
		}
	}()
	var seen, bad []Ref
	check := func(r Ref) {
		if w := a.Words(r); len(w) != WordCap(r.Class()) || w[0] != int64(r) || w[len(w)-1] != ^int64(r) {
			bad = append(bad, r)
		}
	}
	for r := range refs {
		seen = append(seen, r)
		for _, old := range seen[max(0, len(seen)-8):] {
			check(old)
		}
	}
	for _, r := range seen {
		check(r)
	}
	for _, r := range bad {
		t.Errorf("ref at offset %d, class %d resolves to other words", r.Off(), r.Class())
	}
}

// TestConcurrentAllocFree drives one Allocator from every goroutine: no
// block is handed to two holders at once, and every one comes back.
func TestConcurrentAllocFree(t *testing.T) {
	a := NewAllocator()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var local []Ref
			release := func(b Ref) error {
				if a.Words(b)[0]>>32 != int64(g) {
					return fmt.Errorf("goroutine %d: block at %d overwritten by goroutine %d", g, b.Off(), a.Words(b)[0]>>32)
				}
				a.Free(b)
				return nil
			}
			for i := 0; i < 2000; i++ {
				b := a.Alloc(i % 6)
				a.Words(b)[0] = int64(g)<<32 | int64(i)
				local = append(local, b)
				if len(local) > 16 {
					if err := release(local[0]); err != nil {
						errs <- err
						return
					}
					local = local[1:]
				}
			}
			for _, b := range local {
				if err := release(b); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s := a.Stats()
	if s.AllocatedBlocks != 0 {
		t.Fatalf("leaked %d blocks", s.AllocatedBlocks)
	}
}

func BenchmarkAllocFreeSmall(b *testing.B) {
	a := NewAllocator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := a.Alloc(0)
		a.Free(blk)
	}
}

package storage

import (
	"testing"
	"testing/quick"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		words, class int
	}{
		{0, 0}, {1, 0}, {8, 0}, {9, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3},
		{MinBlockWords << 5, 5}, {(MinBlockWords << 5) + 1, 6},
	}
	for _, c := range cases {
		if got := ClassFor(c.words); got != c.class {
			t.Errorf("ClassFor(%d) = %d, want %d", c.words, got, c.class)
		}
	}
}

func TestClassForProperty(t *testing.T) {
	f := func(n uint16) bool {
		words := int(n)
		c := ClassFor(words)
		cap := WordCap(c)
		if cap < words && words > 0 {
			return false
		}
		// minimal: previous class must be too small (unless class 0)
		if c > 0 && WordCap(c-1) >= words {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocZeroedAndSized(t *testing.T) {
	a := NewAllocator(0)
	h := a.NewHandle()
	for class := 0; class < 12; class++ {
		b := h.Alloc(class)
		if len(b.Words) != WordCap(class) {
			t.Fatalf("class %d: got %d words, want %d", class, len(b.Words), WordCap(class))
		}
		for i, w := range b.Words {
			if w != 0 {
				t.Fatalf("class %d word %d not zero", class, i)
			}
		}
		b.Words[0] = 42
		h.Free(b)
	}
}

func TestRecycleThroughPrivateList(t *testing.T) {
	a := NewAllocator(4)
	h := a.NewHandle()
	b1 := h.Alloc(2)
	b1.Words[3] = 99
	h.Free(b1)
	b2 := h.Alloc(2)
	if b2 != b1 {
		t.Fatal("small class should recycle through the private list")
	}
	if b2.Words[3] != 0 {
		t.Fatal("recycled block must be zeroed")
	}
}

func TestRecycleThroughSharedList(t *testing.T) {
	a := NewAllocator(2)
	h1 := a.NewHandle()
	h2 := a.NewHandle()
	b1 := h1.Alloc(5) // class 5 > smallClassMax 2 => shared
	h1.Free(b1)
	b2 := h2.Alloc(5)
	if b2 != b1 {
		t.Fatal("large class should recycle through the shared list")
	}
}

func TestPrivateListsAreHandleLocal(t *testing.T) {
	a := NewAllocator(4)
	h1 := a.NewHandle()
	h2 := a.NewHandle()
	b1 := h1.Alloc(1)
	h1.Free(b1)
	b2 := h2.Alloc(1)
	if b2 == b1 {
		t.Fatal("private free lists must not be shared between handles")
	}
}

func TestDeferFreeReclaim(t *testing.T) {
	a := NewAllocator(0)
	h := a.NewHandle()
	b := h.Alloc(3)
	h.DeferFree(b, 10)
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
	b2 := h.Alloc(3)
	if b2 != b {
		t.Fatal("reclaimed block should be reused")
	}
}

func TestStatsAccounting(t *testing.T) {
	a := NewAllocator(0)
	h := a.NewHandle()
	var blocks []*Block
	for i := 0; i < 10; i++ {
		blocks = append(blocks, h.Alloc(1))
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
		h.Free(b)
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
	a := NewAllocator(0)
	h := a.NewHandle()
	class := ClassFor(slabWords + 1)
	b := h.Alloc(class)
	if len(b.Words) < slabWords {
		t.Fatal("huge block too small")
	}
	h.Free(b)
	b2 := h.Alloc(class)
	if b2 != b {
		t.Fatal("huge block should recycle")
	}
}

// TestSlabTailGoesToFreeLists: a block that does not fit the rest of the
// current slab opens the next one, and the rest is cut into free blocks
// instead of stranded, so everything reserved is live, recycled, or the
// uncarved rest of the newest slab.
func TestSlabTailGoesToFreeLists(t *testing.T) {
	a := NewAllocator(0)
	h := a.NewHandle()
	half := ClassFor(slabWords / 2)
	h.Alloc(0)
	h.Alloc(half)
	if b := h.Alloc(half); b.Off != slabWords {
		t.Fatalf("second half-slab block at arena offset %d, want the next slab's start %d", b.Off, slabWords)
	}
	s := a.Stats()
	if s.RecycledWords != slabWords/2-MinBlockWords {
		t.Fatalf("%d words of the first slab's tail recycled, want %d", s.RecycledWords, slabWords/2-MinBlockWords)
	}
	if uncarved := s.SlabWords - s.AllocatedWords - s.RecycledWords; uncarved != slabWords/2 {
		t.Fatalf("%d words uncarved, want the newest slab's rest %d", uncarved, slabWords/2)
	}
	if b := h.Alloc(half - 1); b.Off >= slabWords {
		t.Fatalf("quarter-slab block carved at arena offset %d, not from the first slab's tail", b.Off)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := NewAllocator(0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			h := a.NewHandle()
			var local []*Block
			for i := 0; i < 2000; i++ {
				b := h.Alloc(i % 6)
				b.Words[0] = int64(i)
				local = append(local, b)
				if len(local) > 16 {
					h.Free(local[0])
					local = local[1:]
				}
			}
			for _, b := range local {
				h.Free(b)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s := a.Stats()
	if s.AllocatedBlocks != 0 {
		t.Fatalf("leaked %d blocks", s.AllocatedBlocks)
	}
}

func BenchmarkAllocFreeSmall(b *testing.B) {
	a := NewAllocator(0)
	h := a.NewHandle()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := h.Alloc(0)
		h.Free(blk)
	}
}

package sparsebit

import (
	"math/rand"
	"sync"
	"testing"
)

func TestTestAndSet(t *testing.T) {
	s := New(4)
	keys := []int64{0, 1, 63, 64, 4095, 4096, 1 << 20, 1<<40 + 17}
	for _, k := range keys {
		if s.Test(k) {
			t.Fatalf("bit %d set before TestAndSet", k)
		}
		if s.TestAndSet(k) {
			t.Fatalf("first TestAndSet(%d) reported already-set", k)
		}
		if !s.TestAndSet(k) {
			t.Fatalf("second TestAndSet(%d) reported unset", k)
		}
		if !s.Test(k) {
			t.Fatalf("Test(%d) = false after set", k)
		}
	}
	// Neighbouring bits are untouched.
	if s.Test(2) || s.Test(62) || s.Test(4097) {
		t.Fatal("a neighbouring bit leaked")
	}
}

func TestResetRetainsPages(t *testing.T) {
	s := New(1)
	for k := int64(0); k < 10_000; k += 7 {
		s.TestAndSet(k)
	}
	s.Reset()
	for k := int64(0); k < 10_000; k += 7 {
		if s.Test(k) {
			t.Fatalf("bit %d survived Reset", k)
		}
	}
	// After a Reset the same range sets cleanly again.
	if s.TestAndSet(7) {
		t.Fatal("TestAndSet after Reset saw a stale bit")
	}
}

// TestConcurrentTestAndSet hammers one Set from many goroutines: every key
// must be claimed exactly once across all claimants (run under -race).
func TestConcurrentTestAndSet(t *testing.T) {
	const workers = 8
	const keys = 1 << 14
	s := New(workers)
	claimed := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			order := rng.Perm(keys)
			for _, k := range order {
				if !s.TestAndSet(int64(k) * 131) { // spread across pages
					claimed[w] = append(claimed[w], int64(k))
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int64]int)
	total := 0
	for _, c := range claimed {
		total += len(c)
		for _, k := range c {
			seen[k]++
			if seen[k] > 1 {
				t.Fatalf("key %d claimed twice", k)
			}
		}
	}
	if total != keys {
		t.Fatalf("claimed %d keys, want %d", total, keys)
	}
}

// TestOwnedBetweenBarriers is the traversal engine's use of one Set: a
// pool of workers claims keys through the locked TestAndSet, the pool is
// joined, and the owner then probes and extends the same Set through the
// lock-free TestAndSetOwned — which must see exactly what the workers set,
// on every stripe — before a second pool takes over again. Under -race
// this also shows the joins are all the ordering the owned call needs.
func TestOwnedBetweenBarriers(t *testing.T) {
	const workers = 4
	const keys = 1 << 13
	s := New(4 * workers)
	pool := func(lo, hi int64) {
		var wg sync.WaitGroup
		for w := int64(0); w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := lo + w; k < hi; k += workers {
					s.TestAndSet(k * 131)
				}
			}()
		}
		wg.Wait()
	}
	pool(0, keys)
	for k := int64(0); k < 2*keys; k++ {
		if was := s.TestAndSetOwned(k * 131); was != (k < keys) {
			t.Fatalf("TestAndSetOwned(%d) = %v after the workers set keys below %d", k*131, was, keys)
		}
	}
	if !s.TestAndSetOwned(131) || s.TestAndSetOwned(7) || !s.Test(7) {
		t.Fatal("owned call does not behave like TestAndSet")
	}
	pool(2*keys, 3*keys)
	for k := int64(0); k < 3*keys; k++ {
		if !s.Peek(k * 131) {
			t.Fatalf("bit %d lost across the owned phase", k*131)
		}
	}
	s.Reset()
	if s.TestAndSetOwned(131) {
		t.Fatal("TestAndSetOwned after Reset saw a stale bit")
	}
}

func BenchmarkTestAndSet(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.TestAndSet(int64(i) & 0xffff)
	}
}

func BenchmarkTestAndSetOwned(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.TestAndSetOwned(int64(i) & 0xffff)
	}
}

func BenchmarkMapDedup(b *testing.B) {
	// The structure the Set replaces, for comparison.
	m := make(map[int64]struct{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := int64(i) & 0xffff
		if _, ok := m[k]; !ok {
			m[k] = struct{}{}
		}
	}
}

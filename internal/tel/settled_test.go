package tel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"livegraph/internal/mvcc"
	"livegraph/internal/storage"
)

// scanDsts collects the destinations a scan of t's first n entries yields.
func scanDsts(t *TEL, n int, tre, tid int64) []int64 {
	var out []int64
	it := t.Scan(n, tre, tid)
	for i := it.Next(); i >= 0; i = it.Next() {
		out = append(out, t.Dst(i))
	}
	return out
}

// TestSettled walks one list through every condition of the settled rule:
// each one alone turns the header check off, and the scan stays exact
// either way.
func TestSettled(t *testing.T) {
	a := storage.NewAllocator()
	tl := newTEL(a, 1, 0, 8, 64)
	pl := tl.Append(0, 10, 1, []byte("a"), 0)
	pl = tl.Append(1, 11, 2, []byte("bb"), pl)
	tl.Publish(2, pl, 2)

	if !tl.Settled(2, 2, 0) || !tl.Settled(2, 9, 0) {
		t.Fatal("append-only list read at or past CT is not settled")
	}
	if tl.Settled(2, 1, 0) {
		t.Fatal("settled below CT")
	}
	if got := scanDsts(&tl, 2, 1, 0); !slices.Equal(got, []int64{10}) {
		t.Fatalf("scan below CT = %v, want [10]", got)
	}
	if tl.Settled(2, 2, 7) {
		t.Fatal("settled for a writer")
	}
	// A tentative append past LS: the writer's bound is not LS.
	pl = tl.Append(2, 12, -7, nil, pl)
	if tl.Settled(3, 2, 0) || tl.Settled(1, 2, 0) {
		t.Fatal("settled with a bound other than LS")
	}
	// A tentative invalidation leaves the list settled for everyone else.
	if !tl.CASInvalidation(0, mvcc.NullTS, -7) {
		t.Fatal("CAS to -tid failed")
	}
	if !tl.Settled(2, 2, 0) || tl.DeadBytes() != 0 {
		t.Fatal("a tentative invalidation counted as dead")
	}
	if got := scanDsts(&tl, 3, 2, 7); !slices.Equal(got, []int64{12, 11}) {
		t.Fatalf("writer's scan = %v, want [12 11]", got)
	}
	// Its commit at 3: publish, then flip.
	tl.Publish(3, pl, 3)
	tl.SetCreation(2, 3)
	tl.SetInvalidation(0, 3)
	if tl.DeadBytes() != EntryWords*8+1 {
		t.Fatalf("DeadBytes = %d, want %d", tl.DeadBytes(), EntryWords*8+1)
	}
	if tl.Settled(3, 3, 0) || tl.Settled(3, 9, 0) {
		t.Fatal("settled with an invalidated entry")
	}
	if got := scanDsts(&tl, 3, 3, 0); !slices.Equal(got, []int64{12, 11}) {
		t.Fatalf("scan at 3 = %v, want [12 11]", got)
	}
	if got := scanDsts(&tl, 2, 2, 0); !slices.Equal(got, []int64{11, 10}) {
		t.Fatalf("scan at 2 = %v, want [11 10]", got)
	}
}

// TestCompactAppendCountsKeptInvalidation: an entry compaction keeps with a
// committed invalidation (history above the floor) counts in the new
// block's DeadBytes, so the copy is not settled past the invalidation.
func TestCompactAppendCountsKeptInvalidation(t *testing.T) {
	a := storage.NewAllocator()
	src := newTEL(a, 1, 0, 8, 64)
	pl := src.Append(0, 10, 1, []byte("old"), 0)
	pl = src.Append(1, 20, 1, nil, pl)
	src.Publish(2, pl, 1)
	pl = src.Append(2, 10, 2, []byte("new!"), pl)
	src.Publish(3, pl, 2)
	src.SetInvalidation(0, 2)

	dst := newTEL(a, 1, 0, 8, 64)
	npl := 0
	for i := 0; i < 3; i++ {
		npl = dst.CompactAppend(&src, i, i, npl)
	}
	dst.Publish(3, npl, src.CommitTS())
	if want := int64(EntryWords*8 + 3); dst.DeadBytes() != want || src.DeadBytes() != want {
		t.Fatalf("DeadBytes: copy %d, source %d, want %d", dst.DeadBytes(), src.DeadBytes(), want)
	}
	if dst.Settled(3, 2, 0) {
		t.Fatal("copy with a kept invalidation is settled")
	}
	if got := scanDsts(&dst, 3, 2, 0); !slices.Equal(got, []int64{10, 20}) {
		t.Fatalf("scan at 2 = %v, want [10 20]", got)
	}
}

// TestScanRacesCommitStoreOrder runs one reader scanning a list while a
// writer commits to it in the committer's store order — tentative appends
// and -tid invalidations, Publish, creation and invalidation flips, then
// the read epoch — upgrading the block when it fills and compacting it
// above the reader's pinned epoch. Every scan, settled or not, must equal
// the model at its epoch. The model is fixed before the goroutines start:
// entry d (its destination) is created at cre[d] and, if inv[d] > 0,
// invalidated at inv[d].
func TestScanRacesCommitStoreOrder(t *testing.T) {
	const epochs = 400
	rng := rand.New(rand.NewSource(1))
	var cre, inv []int64
	var live []int64
	for e := int64(1); e <= epochs; e++ {
		for k := rng.Intn(3); k > 0; k-- {
			cre = append(cre, e)
			inv = append(inv, 0)
			live = append(live, int64(len(cre)-1))
		}
		// Invalidations come in bursts with quiet stretches between them,
		// and none in the last 16 epochs, so compaction clears the list
		// and most scans can take the settled path.
		if (e/32)%2 == 1 && e < epochs-16 && len(live) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			if d := live[j]; cre[d] < e {
				inv[d] = e
				live = append(live[:j], live[j+1:]...)
			}
		}
	}
	props := func(d int64) []byte { return []byte(fmt.Sprint(d)) }
	want := func(tre int64) []int64 {
		var out []int64
		for d := int64(len(cre)) - 1; d >= 0; d-- {
			if cre[d] <= tre && (inv[d] == 0 || inv[d] > tre) {
				out = append(out, d)
			}
		}
		return out
	}

	a := storage.NewAllocator()
	var (
		gre, pin atomic.Int64 // pin: the lowest epoch the reader may still scan at
		cur      atomic.Uint64
		done     atomic.Bool
		settled  atomic.Int64
		scans    atomic.Int64
		wg       sync.WaitGroup
	)
	cur.Store(uint64(New(a, 1, 0, 1, 0)))
	errs := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(2))
		for last := false; !last; {
			last = done.Load() // one more scan after the writer is done
			p := gre.Load()
			pin.Store(max(p-2, 0))
			tre := p
			if !last {
				tre = max(p-int64(r.Intn(3)), 0)
			}
			tl := At(a, storage.Ref(cur.Load()))
			n := tl.Len()
			if tl.Settled(n, tre, 0) {
				settled.Add(1)
			}
			var got []int64
			it := tl.Scan(n, tre, 0)
			for i := it.Next(); i >= 0; i = it.Next() {
				d := tl.Dst(i)
				if string(tl.Props(i)) != string(props(d)) {
					errs <- fmt.Sprintf("epoch %d: entry %d props %q", tre, d, tl.Props(i))
					return
				}
				got = append(got, d)
			}
			if w := want(tre); !slices.Equal(got, w) {
				errs <- fmt.Sprintf("scan %d at epoch %d: got %v, want %v", scans.Load(), tre, got, w)
				return
			}
			scans.Add(1)
			runtime.Gosched()
		}
	}()

	const tid = 5
	tl := At(a, storage.Ref(cur.Load()))
	n, pl := 0, 0
	next := int64(0) // next entry to append
	lastInv := int64(0)
	for e := int64(1); e <= epochs; e++ {
		var appended, invalidated []int
		for ; next < int64(len(cre)) && cre[next] == e; next++ {
			p := props(next)
			if !tl.Fits(n, pl, len(p)) {
				tl = At(a, tl.Upgrade(a, n, pl, len(p)))
				cur.Store(uint64(tl.Ref()))
			}
			pl = tl.Append(n, next, -tid, p, pl)
			appended = append(appended, n)
			n++
		}
		for i := 0; i < n; i++ {
			if inv[tl.Dst(i)] == e {
				if !tl.CASInvalidation(i, mvcc.NullTS, -tid) {
					t.Fatalf("epoch %d: entry %d already invalidated", e, tl.Dst(i))
				}
				invalidated = append(invalidated, i)
				lastInv = e
			}
		}
		if len(appended)+len(invalidated) > 0 {
			tl.Publish(n, pl, e) // a commit that does not touch the list leaves CT
		}
		for _, i := range appended {
			tl.SetCreation(i, e)
		}
		for _, i := range invalidated {
			tl.SetInvalidation(i, e)
		}
		gre.Store(e)
		// Let at least one scan start before the next commit, so every
		// epoch's stores race a reader.
		for seen := scans.Load(); scans.Load() == seen && len(errs) == 0; {
			runtime.Gosched()
		}
		if e%8 == 0 || e == epochs {
			if e == epochs {
				// Clear the last burst: wait until no scan can be below it.
				for pin.Load() < lastInv && len(errs) == 0 {
					runtime.Gosched()
				}
			}
			tl, n, pl = compactAbove(a, tl, min(pin.Load(), e))
			cur.Store(uint64(tl.Ref()))
		}
	}
	done.Store(true)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if !tl.Settled(n, epochs, 0) || settled.Load() == 0 {
		t.Fatalf("list not settled after the last compaction (dead bytes %d, %d settled scans)", tl.DeadBytes(), settled.Load())
	}
	t.Logf("%d scans, %d settled", scans.Load(), settled.Load())
}

// compactAbove copies t's entries not invalidated at or below floor into a
// new block, as core's compaction does, and returns it with its sizes.
func compactAbove(a *storage.Allocator, t TEL, floor int64) (TEL, int, int) {
	n := t.Len()
	nt := At(a, New(a, t.Src(), t.Label(), n+1, t.PropLen()))
	ni, npl := 0, 0
	for i := 0; i < n; i++ {
		if inv := t.Invalidation(i); inv >= 0 && inv <= floor {
			continue
		}
		npl = nt.CompactAppend(&t, i, ni, npl)
		ni++
	}
	nt.Publish(ni, npl, t.CommitTS())
	return nt, ni, npl
}

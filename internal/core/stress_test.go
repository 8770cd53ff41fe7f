package core

// Concurrency stress test for the commit pipeline: N writer goroutines
// and M snapshot readers share one durable graph. Run under -race. The
// readers assert the snapshot isolation invariants the group-commit
// persist phase must preserve:
//
//  1. No reader ever observes a half-applied commit group: values a
//     transaction always writes together (two vertex payloads, two edge
//     appends on two vertices) are always observed together.
//  2. A pinned snapshot is stable: re-reading gives identical results.
//  3. GRE never exceeds the WAL's durable epoch.

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStressCommitSnapshotIsolation(t *testing.T) {
	const (
		writers          = 4
		readers          = 4
		commitsPerWriter = 120
		stride           = 8 // vertices per writer
	)
	g, err := Open(Options{Dir: t.TempDir(), Workers: 64, CompactEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Each writer owns a vertex pair (a, b).
	init, _ := g.Begin()
	for i := 0; i < writers*stride; i++ {
		if _, err := init.AddVertex([]byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	fail := func(format string, args ...any) {
		done.Store(true)
		t.Errorf(format, args...)
	}

	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func(i int) {
			defer writerWG.Done()
			a := VertexID(stride * i)
			b := a + 5
			for k := 1; k <= commitsPerWriter && !done.Load(); k++ {
				val := []byte(strconv.Itoa(k))
				for {
					tx, err := g.Begin()
					if err != nil {
						fail("writer %d begin: %v", i, err)
						return
					}
					err = func() error {
						if err := tx.PutVertex(a, val); err != nil {
							return err
						}
						if err := tx.PutVertex(b, val); err != nil {
							return err
						}
						// Mirrored edge appends on both vertices.
						dst := VertexID(1000 + k)
						if err := tx.InsertEdge(a, 0, dst, nil); err != nil {
							return err
						}
						return tx.InsertEdge(b, 0, dst, nil)
					}()
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					if !IsRetryable(err) {
						fail("writer %d: %v", i, err)
						return
					}
				}
			}
		}(i)
	}

	writersDone := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				// Invariant 3: GRE <= durable epoch. Sample GRE first —
				// the durability watermark only grows, so the pair is
				// a valid witness even without a global lock.
				gre := g.epochs.ReadEpoch()
				if durable := g.log.Load().DurableEpoch(); gre > durable {
					fail("GRE %d exceeds durable epoch %d", gre, durable)
					return
				}
				tx, err := g.BeginRead()
				if err != nil {
					return // graph closing
				}
				for i := 0; i < writers; i++ {
					a := VertexID(stride * i)
					b := a + 5
					va, err1 := tx.GetVertex(a)
					vb, err2 := tx.GetVertex(b)
					if err1 != nil || err2 != nil {
						fail("reader %d: %v %v", r, err1, err2)
						break
					}
					// Invariant 1: the pair commits atomically.
					if string(va) != string(vb) {
						fail("reader %d saw torn group: v[%d]=%s v[%d]=%s (epoch %d)",
							r, a, va, b, vb, tx.ReadEpoch())
						break
					}
					if da, db := tx.Degree(a, 0), tx.Degree(b, 0); da != db {
						fail("reader %d saw torn edge group: deg(%d)=%d deg(%d)=%d",
							r, a, da, b, db)
						break
					}
					// Invariant 2: the snapshot is stable.
					va2, _ := tx.GetVertex(a)
					if string(va) != string(va2) {
						fail("reader %d snapshot unstable: %s -> %s", r, va, va2)
						break
					}
				}
				tx.Commit()
				if done.Load() {
					return
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(writersDone)
	readerWG.Wait()

	// Final state: every writer's pair converged at its last value.
	tx, _ := g.BeginRead()
	defer tx.Commit()
	if t.Failed() {
		return
	}
	for i := 0; i < writers; i++ {
		want := fmt.Sprint(commitsPerWriter)
		v, err := tx.GetVertex(VertexID(stride * i))
		if err != nil || string(v) != want {
			t.Fatalf("writer %d final value %q (%v), want %q", i, v, err, want)
		}
		if d := tx.Degree(VertexID(stride*i), 0); d != commitsPerWriter {
			t.Fatalf("writer %d final degree %d, want %d", i, d, commitsPerWriter)
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"livegraph/internal/workload/kron"
)

// Tests for the one-region TEL block seen through the engine: properties
// packed from the block's end must survive upgrades, compaction and
// concurrent readers byte for byte, and the arena must stay as small as the
// layout allows.

// edgeProps returns the properties version ver of (src, dst) carries:
// lengths cycle through 0..96 bytes, so appends land on every alignment
// and both sides of a word, and the bytes name their edge and version.
func edgeProps(src, dst VertexID, ver int) []byte {
	p := make([]byte, (int(src)*7+int(dst)*3+ver*5)%97)
	for i := range p {
		p[i] = byte(int(src) + int(dst)*31 + ver*17 + i)
	}
	return p
}

// TestPropsRoundTripThroughUpgradesAndCompaction drives seeded random
// inserts, upserts and deletes into a few lists — enough to push each
// through several upgrades — then deletes most edges and compacts, checking
// every visible edge's properties against a map model after each phase.
func TestPropsRoundTripThroughUpgradesAndCompaction(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			g, err := Open(Options{CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			r := rand.New(rand.NewSource(seed))
			const nsrc, ndst = 4, 200
			mustCommit(t, g, func(tx *Tx) {
				for i := 0; i < ndst; i++ {
					tx.AddVertex(nil)
				}
			})
			model := map[[2]VertexID][]byte{}
			check := func(phase string) {
				t.Helper()
				s, err := g.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Release()
				seen := 0
				for src := VertexID(0); src < nsrc; src++ {
					for it := s.Neighbors(src, 0); it.Next(); seen++ {
						want, ok := model[[2]VertexID{src, it.Dst()}]
						if !ok || !bytes.Equal(it.Props(), want) {
							t.Fatalf("seed %d %s: %d→%d props %v, model %v (present %v)", seed, phase, src, it.Dst(), it.Props(), want, ok)
						}
					}
				}
				if seen != len(model) {
					t.Fatalf("seed %d %s: %d visible edges, model has %d", seed, phase, seen, len(model))
				}
			}

			for ver := 0; ver < 60; ver++ {
				mustCommit(t, g, func(tx *Tx) {
					for op := 0; op < 12; op++ {
						src, dst := VertexID(r.Intn(nsrc)), VertexID(r.Intn(ndst))
						key := [2]VertexID{src, dst}
						_, present := model[key]
						p := edgeProps(src, dst, ver)
						switch k := r.Intn(10); {
						case k < 5 && !present:
							if err := tx.InsertEdge(src, 0, dst, p); err != nil {
								t.Fatal(err)
							}
							model[key] = p
						case k < 8:
							if err := tx.AddEdge(src, 0, dst, p); err != nil {
								t.Fatal(err)
							}
							model[key] = p
						default:
							err := tx.DeleteEdge(src, 0, dst)
							if present != (err == nil) {
								t.Fatalf("delete %v: %v, model present %v", key, err, present)
							}
							delete(model, key)
						}
					}
				})
			}
			if g.stats.Upgrades.Load() < 3*nsrc {
				t.Fatalf("only %d upgrades: the load does not exercise the upgrade path", g.stats.Upgrades.Load())
			}
			check("after upgrades")

			before := map[VertexID]int{}
			for src := VertexID(0); src < nsrc; src++ {
				before[src] = g.telFor(src, 0).Block.Class
			}
			mustCommit(t, g, func(tx *Tx) {
				for key := range model {
					if r.Intn(8) != 0 {
						if err := tx.DeleteEdge(key[0], 0, key[1]); err != nil {
							t.Fatal(err)
						}
						delete(model, key)
					}
				}
			})
			g.CompactNow()
			check("after compaction")
			shrunk := 0
			for src := VertexID(0); src < nsrc; src++ {
				if g.telFor(src, 0).Block.Class < before[src] {
					shrunk++
				}
			}
			if shrunk == 0 {
				t.Fatal("compaction shrank no list")
			}
		})
	}
}

// TestPropsDuringUpgrade pins snapshots while one writer grows a list
// through upgrades and compaction shrinks it again: every property a reader
// gets through GetEdge or Neighbors must be the one written at its
// snapshot, even when the block it reads has since been replaced.
func TestPropsDuringUpgrade(t *testing.T) {
	g, err := Open(Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const src, ndst, rounds = VertexID(0), 64, 400
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i <= ndst; i++ {
			tx.AddVertex(nil)
		}
	})

	// history maps a read epoch to the list as committed at that epoch.
	var history sync.Map
	history.Store(g.ReadEpoch(), map[VertexID][]byte{})
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				s, err := g.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				got := map[VertexID][]byte{}
				for it := s.Neighbors(src, 0); it.Next(); {
					got[it.Dst()] = bytes.Clone(it.Props())
				}
				for dst := VertexID(1); dst <= ndst; dst++ {
					p, err := s.GetEdge(src, 0, dst)
					if (err == nil) != (got[dst] != nil) || !bytes.Equal(p, got[dst]) {
						t.Errorf("epoch %d edge %d: GetEdge %v %v, Neighbors %v", s.tre, dst, p, err, got[dst])
					}
				}
				tre := s.tre
				s.Release()
				var want map[VertexID][]byte
				for { // the writer records an epoch right after publishing it
					if m, ok := history.Load(tre); ok {
						want = m.(map[VertexID][]byte)
						break
					}
					runtime.Gosched()
				}
				if len(got) != len(want) {
					t.Errorf("epoch %d: %d edges, want %d", tre, len(got), len(want))
				}
				for dst, p := range want {
					if !bytes.Equal(got[dst], p) {
						t.Errorf("epoch %d edge %d: props %v, want %v", tre, dst, got[dst], p)
					}
				}
			}
		}()
	}

	model := map[VertexID][]byte{}
	commit := func(fn func(tx *Tx)) {
		mustCommit(t, g, fn)
		frozen := make(map[VertexID][]byte, len(model))
		for k, v := range model {
			frozen[k] = v
		}
		history.Store(g.ReadEpoch(), frozen)
	}
	for ver := 0; ver < rounds && !t.Failed(); ver++ {
		// Grow: upsert a quarter of the destinations, so the list keeps
		// outgrowing its block.
		commit(func(tx *Tx) {
			for dst := VertexID(1 + ver%4); dst <= ndst; dst += 4 {
				p := edgeProps(src, dst, ver)
				if err := tx.AddEdge(src, 0, dst, p); err != nil {
					t.Error(err)
				}
				model[dst] = p
			}
		})
		if ver%10 == 9 {
			// Shrink: drop most edges, then compact the list into a smaller
			// block while readers may still hold the old one.
			commit(func(tx *Tx) {
				for dst := range model {
					if dst%3 != 0 {
						if err := tx.DeleteEdge(src, 0, dst); err != nil {
							t.Error(err)
						}
						delete(model, dst)
					}
				}
			})
			g.CompactNow()
		}
	}
	done.Store(true)
	wg.Wait()
	if g.stats.Upgrades.Load() == 0 || g.stats.Compactions.Load() == 0 {
		t.Fatalf("upgrades %d, compactions %d: the writer did not move the list", g.stats.Upgrades.Load(), g.stats.Compactions.Load())
	}
}

// TestArenaBytesPerEdge is the tier-1 memory guard: 2^14 × 16 Kronecker
// edges with 32 B of properties, loaded through one allocation handle with
// maintenance off, and the blocks the load's upgrades left behind
// reclaimed. The load is deterministic, so the numbers repeat exactly.
// Before the one-region block, live blocks held 104.0 B/edge (a word region
// and a byte region of the same size) and 22.9 % of the reserved arena was
// never carved (two 32 MiB slab series); one region holds the same lists in
// 101.2 B/edge, and 1 MiB slabs whose tails go to the free lists leave only
// the current slab's rest uncarved. A second region, a coarser size class,
// or stranded slab tails fail it.
func TestArenaBytesPerEdge(t *testing.T) {
	const liveBytesPerEdge = 102
	g, err := Open(Options{Workers: 1, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	edges, props := kron.Generate(14, 16, 42, kron.DefaultParams), make([]byte, 32)
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 1<<14; i++ {
			tx.AddVertex(nil)
		}
	})
	for lo := 0; lo < len(edges); lo += 8192 {
		mustCommit(t, g, func(tx *Tx) {
			for _, e := range edges[lo:min(lo+8192, len(edges))] {
				if err := tx.InsertEdge(VertexID(e.Src), 0, VertexID(e.Dst), props); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	g.CompactNow() // reclaims the upgraded-away blocks; no list has a dead entry
	st := g.AllocStats()
	perEdge := func(words int64) float64 { return float64(words*8) / float64(len(edges)) }
	t.Logf("%d edges: live %.1f, recycled %.1f, reserved %.1f B/edge", len(edges),
		perEdge(st.AllocatedWords), perEdge(st.RecycledWords), perEdge(st.SlabWords))
	if live := perEdge(st.AllocatedWords); live > liveBytesPerEdge {
		t.Errorf("live arena %.1f B/edge, bound %d", live, liveBytesPerEdge)
	}
	if uncarved := st.SlabWords - st.AllocatedWords - st.RecycledWords; uncarved >= slabWords {
		t.Errorf("%d words reserved but never carved, want < one slab (%d)", uncarved, slabWords)
	}
}

// slabWords is the slab size the guard holds storage to (its unexported
// constant of the same name).
const slabWords = 1 << 17

// TestVolatileGraphKeepsNoCheckpointJournal: only a graph that can
// checkpoint keeps the checkpoint journal; on a volatile one nothing would
// ever drain it.
func TestVolatileGraphKeepsNoCheckpointJournal(t *testing.T) {
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) { tx.AddVertex(nil); tx.AddVertex(nil) })
	for i := 0; i < 10000; i++ {
		mustCommit(t, g, func(tx *Tx) {
			if err := tx.AddEdge(VertexID(i%2), 0, VertexID(1-i%2), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if g.ckptDirty != nil {
		t.Fatalf("a volatile graph holds a checkpoint journal of %d vertices", g.ckptDirty.Len())
	}
	if err := g.Checkpoint(); err == nil {
		t.Fatal("a volatile graph checkpointed")
	}

	d := openDurable(t, t.TempDir())
	defer d.Close()
	mustCommit(t, d, func(tx *Tx) { tx.AddVertex(nil) })
	if d.ckptDirty.Len() != 1 {
		t.Fatalf("durable journal holds %d vertices, want 1", d.ckptDirty.Len())
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.ckptDirty.Len() != 0 {
		t.Fatalf("checkpoint left %d vertices in the journal", d.ckptDirty.Len())
	}
}

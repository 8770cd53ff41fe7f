// Ablation benchmarks for the TEL's design choices (the block layout is in
// the internal/tel package comment, its memory cost in README's "Where the
// bytes are"): the embedded Bloom filter (early rejection of
// previous-version scans), group commit (fsync amortisation), compaction
// frequency (paper §7.2: "<5%" effect), and the doubling block-growth
// policy.
package livegraph_test

import (
	"fmt"
	"sync"
	"testing"

	"livegraph/internal/core"
	"livegraph/internal/iosim"
)

// BenchmarkAblationBloom compares edge insertion with the upsert path
// (Bloom-guarded previous-version check, AddEdge) against the blind-append
// path (InsertEdge) on a high-degree vertex. The gap is the cost the Bloom
// filter saves LinkBench's "true insertions" (>99.9% of them, per the
// paper's profiling).
func BenchmarkAblationBloom(b *testing.B) {
	setup := func(b *testing.B) (*core.Graph, core.VertexID) {
		g := openBench(b)
		tx, _ := g.Begin()
		hub, _ := tx.AddVertex(nil)
		for i := 0; i < 4096; i++ {
			tx.InsertEdge(hub, 0, core.VertexID(10+i), nil)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		return g, hub
	}
	b.Run("UpsertFreshDst", func(b *testing.B) {
		// Fresh destinations: the filter answers "definitely absent" and
		// the scan is skipped — amortised O(1) like InsertEdge.
		g, hub := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := g.Begin()
			tx.AddEdge(hub, 0, core.VertexID(1<<40+i), nil)
			tx.Commit()
		}
		st := g.Stats()
		b.ReportMetric(float64(st.BloomSkips.Load())/float64(st.BloomSkips.Load()+st.BloomScans.Load())*100, "skip%")
	})
	b.Run("UpsertExistingDst", func(b *testing.B) {
		// Existing destination: filter hits, tail-to-head scan runs. With
		// time locality the previous version sits near the tail.
		g, hub := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := g.Begin()
			tx.AddEdge(hub, 0, core.VertexID(10+4095), nil)
			tx.Commit()
		}
	})
	b.Run("BlindInsert", func(b *testing.B) {
		g, hub := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := g.Begin()
			tx.InsertEdge(hub, 0, core.VertexID(1<<41+i), nil)
			tx.Commit()
		}
	})
}

// BenchmarkAblationGroupCommit measures commits/second with a slow durable
// device, solo vs 16 concurrent committers: the concurrent case should
// approach 16x the solo rate because one fsync covers the whole group.
func BenchmarkAblationGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dwriters", writers), func(b *testing.B) {
			dir := b.TempDir()
			g, err := core.Open(core.Options{Dir: dir, Device: iosim.NewDevice(iosim.NAND), Workers: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			tx, _ := g.Begin()
			for i := 0; i < writers; i++ {
				tx.AddVertex(nil)
			}
			tx.Commit()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/writers + 1
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tx, _ := g.Begin()
						tx.InsertEdge(core.VertexID(w), 0, core.VertexID(i), nil)
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
		})
	}
}

// BenchmarkAblationCompactionFrequency sweeps CompactEvery (paper §7.2:
// "varying the compaction frequency brings insignificant changes in
// performance (<5%)").
func BenchmarkAblationCompactionFrequency(b *testing.B) {
	for _, every := range []int{256, 4096, 65536, -1} {
		name := fmt.Sprintf("every%d", every)
		if every < 0 {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			g, err := core.Open(core.Options{CompactEvery: every, Workers: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			tx, _ := g.Begin()
			a, _ := tx.AddVertex(nil)
			tx.Commit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := g.Begin()
				// Churny upsert: every write invalidates a version, so
				// compaction has real work.
				tx.AddEdge(a, 0, core.VertexID(i%64), nil)
				tx.Commit()
			}
		})
	}
}

// BenchmarkAblationBlockGrowth isolates the amortised cost of the doubling
// upgrade policy: inserting N edges into one vertex pays O(log N) block
// copies; the per-insert cost must stay flat as the list grows.
func BenchmarkAblationBlockGrowth(b *testing.B) {
	for _, degree := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("degree%d", degree), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, _ := core.Open(core.Options{Workers: 8})
				tx, _ := g.Begin()
				hub, _ := tx.AddVertex(nil)
				b.StartTimer()
				for e := 0; e < degree; e++ {
					tx.InsertEdge(hub, 0, core.VertexID(10+e), nil)
				}
				b.StopTimer()
				tx.Commit()
				g.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*degree), "ns/insert")
		})
	}
}

// BenchmarkAblationHistoryRetention measures the read-path cost of keeping
// temporal history: scans must skip over retained dead versions.
func BenchmarkAblationHistoryRetention(b *testing.B) {
	for _, retention := range []int64{0, 1 << 30} {
		name := "aggressive-gc"
		if retention > 0 {
			name = "keep-history"
		}
		b.Run(name, func(b *testing.B) {
			g, err := core.Open(core.Options{HistoryRetention: retention, Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			tx, _ := g.Begin()
			a, _ := tx.AddVertex(nil)
			bb, _ := tx.AddVertex(nil)
			tx.Commit()
			for i := 0; i < 256; i++ {
				tx, _ := g.Begin()
				tx.AddEdge(a, 0, bb, []byte{byte(i)})
				tx.Commit()
			}
			g.CompactNow()
			r, _ := g.BeginRead()
			defer r.Commit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := r.Degree(a, 0); d != 1 {
					b.Fatal(d)
				}
			}
		})
	}
}

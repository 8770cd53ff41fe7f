package iosim

import (
	"sync"
	"testing"
	"time"
)

func TestNullDeviceIsInstant(t *testing.T) {
	d := NewDevice(Null)
	d.Write(1 << 20)
	start := time.Now()
	d.Sync()
	if time.Since(start) > 5*time.Millisecond {
		t.Fatal("null device slept")
	}
	if s := d.Stats(); s.Syncs != 1 || s.BytesWritten != 1<<20 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSyncChargesLatencyAndBandwidth(t *testing.T) {
	p := Profile{Name: "t", WriteLatency: 2 * time.Millisecond, WriteBWBps: 100 << 20}
	d := NewDevice(p)
	d.Write(10 << 20) // 10 MiB at 100 MiB/s => 100 ms
	start := time.Now()
	d.Sync()
	el := time.Since(start)
	if el < 90*time.Millisecond {
		t.Fatalf("sync took %v, want >= ~100ms", el)
	}
}

func TestSyncSerialisesQueue(t *testing.T) {
	p := Profile{Name: "t", WriteLatency: 10 * time.Millisecond}
	d := NewDevice(p)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); d.Sync() }()
	}
	wg.Wait()
	if el := time.Since(start); el < 35*time.Millisecond {
		t.Fatalf("4 concurrent syncs took %v, want >= 40ms (queued)", el)
	}
}

func TestReadFault(t *testing.T) {
	p := Profile{Name: "t", ReadLatency: 5 * time.Millisecond}
	d := NewDevice(p)
	start := time.Now()
	d.ReadFault(4096)
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("read fault too fast")
	}
	if s := d.Stats(); s.ReadFaults != 1 || s.BytesRead != 4096 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPageCacheUnlimitedAlwaysHits(t *testing.T) {
	c := NewPageCache(NewDevice(Null), 0)
	for i := uint64(0); i < 100; i++ {
		if !c.Touch(i, 1<<20) {
			t.Fatal("unlimited cache missed")
		}
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("misses %d", s.Misses)
	}
}

func TestPageCacheLRUEviction(t *testing.T) {
	c := NewPageCache(NewDevice(Null), 300)
	// Three 100-byte pages fit; the fourth evicts the LRU (page 1).
	c.Touch(1, 100)
	c.Touch(2, 100)
	c.Touch(3, 100)
	c.Touch(2, 100) // refresh 2; LRU order now 1 < 3 < 2
	if !c.Touch(3, 100) {
		t.Fatal("page 3 should be resident")
	}
	c.Touch(4, 100) // evicts 1
	if c.Touch(1, 100) {
		t.Fatal("page 1 should have been evicted")
	}
	s := c.Stats()
	if s.ResidentBytes > 300 {
		t.Fatalf("resident %d exceeds cap", s.ResidentBytes)
	}
}

func TestPageCacheForget(t *testing.T) {
	c := NewPageCache(NewDevice(Null), 1000)
	c.Touch(1, 400)
	c.Forget(1)
	if s := c.Stats(); s.ResidentBytes != 0 {
		t.Fatalf("resident %d after forget", s.ResidentBytes)
	}
	if c.Touch(1, 400) {
		t.Fatal("forgotten page should miss")
	}
}

func TestPageCacheMissChargesDevice(t *testing.T) {
	d := NewDevice(Profile{Name: "t", ReadLatency: time.Millisecond})
	c := NewPageCache(d, 1000)
	c.Touch(1, 100)
	if s := d.Stats(); s.ReadFaults != 1 {
		t.Fatalf("device faults %d, want 1", s.ReadFaults)
	}
	c.Touch(1, 100) // hit: no new fault
	if s := d.Stats(); s.ReadFaults != 1 {
		t.Fatalf("device faults %d after hit", s.ReadFaults)
	}
}

func TestPageCacheConcurrent(t *testing.T) {
	c := NewPageCache(NewDevice(Null), 10_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Touch(uint64(g*1000+i%500), 64)
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.ResidentBytes > 10_000 {
		t.Fatalf("cap violated: %d", s.ResidentBytes)
	}
}

func TestCrashAfterTearsWrite(t *testing.T) {
	d := NewDevice(Null)
	if n, err := d.Accept(50); n != 50 || err != nil {
		t.Fatalf("unarmed Accept = %d, %v", n, err)
	}
	d.CrashAfter(100)
	if n, err := d.Accept(60); n != 60 || err != nil {
		t.Fatalf("within budget: %d, %v", n, err)
	}
	// This write crosses the crash point: only a prefix persists.
	n, err := d.Accept(60)
	if n != 40 || err != ErrCrashed {
		t.Fatalf("crossing write = %d, %v; want 40, ErrCrashed", n, err)
	}
	if !d.Crashed() {
		t.Fatal("device not crashed after budget exhausted")
	}
	// Dead device accepts nothing.
	if n, err := d.Accept(10); n != 0 || err != ErrCrashed {
		t.Fatalf("post-crash Accept = %d, %v", n, err)
	}
	d.Revive()
	if d.Crashed() {
		t.Fatal("Revive did not clear crash state")
	}
	if n, err := d.Accept(10); n != 10 || err != nil {
		t.Fatalf("revived Accept = %d, %v", n, err)
	}
}

func TestPageCacheShardedAggregateCap(t *testing.T) {
	// Large cap => multiple LRU shards. The aggregate invariant must
	// hold regardless of which shards pages hash to.
	const cap = 8 * minShardBytes
	c := NewPageCache(NewDevice(Null), cap)
	if got := len(c.shards); got != maxCacheShards {
		t.Fatalf("shards = %d, want %d", got, maxCacheShards)
	}
	for i := uint64(0); i < 3000; i++ {
		c.Touch(i, 4096)
	}
	if s := c.Stats(); s.ResidentBytes > cap {
		t.Fatalf("resident %d exceeds aggregate cap %d", s.ResidentBytes, cap)
	}
	// SetCap(1) is the evict-everything reset the benches use.
	c.SetCap(1)
	for i := uint64(0); i < 100; i++ {
		c.Touch(i, 4096)
	}
	if s := c.Stats(); s.ResidentBytes > int64(len(c.shards))*4096 {
		t.Fatalf("resident %d after SetCap(1)", s.ResidentBytes)
	}
}

func TestPageCacheTinyCapSingleShard(t *testing.T) {
	// Caps too small to split keep one stripe — exact global LRU.
	if n := len(NewPageCache(NewDevice(Null), 300).shards); n != 1 {
		t.Fatalf("tiny cache has %d shards, want 1", n)
	}
	if n := len(NewPageCache(NewDevice(Null), 2*minShardBytes).shards); n != 2 {
		t.Fatalf("2-stripe budget gave %d shards", n)
	}
}

func TestPageCacheShardedConcurrentTouch(t *testing.T) {
	// The lock-striped cache under concurrent touch/forget/stats from
	// many goroutines: run with -race; also check the aggregate cap and
	// hit+miss accounting afterwards.
	const cap = 8 * minShardBytes
	c := NewPageCache(NewDevice(Null), cap)
	var wg sync.WaitGroup
	const goroutines, ops = 8, 4000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := uint64(g*1000 + i%700)
				c.Touch(id, 4096)
				if i%97 == 0 {
					c.Forget(id)
				}
				if i%193 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.ResidentBytes > cap {
		t.Fatalf("cap violated: %d > %d", s.ResidentBytes, cap)
	}
	if s.Hits+s.Misses != goroutines*ops {
		t.Fatalf("hits %d + misses %d != %d touches", s.Hits, s.Misses, goroutines*ops)
	}
}

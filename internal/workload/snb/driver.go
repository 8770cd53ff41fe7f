package snb

import (
	"math/rand"
	"sync"
	"time"

	"livegraph/internal/obs"
	"livegraph/internal/workload"
)

// Category buckets requests the way the paper reports them.
type Category int

// Request categories with the official SNB interactive mix shares.
const (
	CatComplex Category = iota // 7.26%
	CatShort                   // 63.82%
	CatUpdate                  // 28.91%
	numCategories
)

var categoryNames = [...]string{"complex", "short", "update"}

// String returns the category name.
func (c Category) String() string { return categoryNames[c] }

// DriverConfig parameterises a workload run.
type DriverConfig struct {
	Clients  int
	Requests int // per client
	Seed     int64
	// ComplexOnly restricts the run to complex reads (the paper's
	// "Complex-Only" rows of Tables 7/8).
	ComplexOnly bool
}

// RunResult aggregates a run's measurements.
type RunResult struct {
	workload.Result
	PerCategory [numCategories]*obs.Histogram
	// Query-level latencies for Table 9.
	Complex1  *obs.Histogram
	Complex13 *obs.Histogram
	Short2    *obs.Histogram
	Updates   *obs.Histogram
}

// Run drives the backend with the official mix and returns latency and
// throughput measurements.
func Run(b Backend, ds *Dataset, cfg DriverConfig) RunResult {
	res := RunResult{
		Result:    workload.Result{Name: b.Name(), Hist: obs.NewHistogram()},
		Complex1:  obs.NewHistogram(),
		Complex13: obs.NewHistogram(),
		Short2:    obs.NewHistogram(),
		Updates:   obs.NewHistogram(),
	}
	for i := range res.PerCategory {
		res.PerCategory[i] = obs.NewHistogram()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*104729))
			for i := 0; i < cfg.Requests; i++ {
				cat := pickCategory(rng, cfg.ComplexOnly)
				t0 := time.Now()
				runRequest(b, ds, rng, cat, &res)
				d := time.Since(t0)
				res.Hist.Record(d)
				res.PerCategory[cat].Record(d)
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Operations = int64(cfg.Clients) * int64(cfg.Requests)
	return res
}

func pickCategory(rng *rand.Rand, complexOnly bool) Category {
	if complexOnly {
		return CatComplex
	}
	r := rng.Float64() * 100
	switch {
	case r < 7.26:
		return CatComplex
	case r < 7.26+63.82:
		return CatShort
	default:
		return CatUpdate
	}
}

func runRequest(b Backend, ds *Dataset, rng *rand.Rand, cat Category, res *RunResult) {
	switch cat {
	case CatComplex:
		t0 := time.Now()
		if rng.Intn(2) == 0 {
			ComplexRead1(b, ds.RandPerson(rng), ds.RandName(rng), 20)
			res.Complex1.Record(time.Since(t0))
		} else {
			ComplexRead13(b, ds.RandPerson(rng), ds.RandPerson(rng))
			res.Complex13.Record(time.Since(t0))
		}
	case CatShort:
		t0 := time.Now()
		if rng.Intn(4) == 0 {
			ShortRead1(b, ds.RandPerson(rng))
		} else {
			ShortRead2(b, ds.RandPerson(rng))
			res.Short2.Record(time.Since(t0))
		}
	case CatUpdate:
		t0 := time.Now()
		switch rng.Intn(10) {
		case 0, 1, 2: // add post
			forum := ds.Forums[rng.Intn(len(ds.Forums))]
			tag := ds.Tags[rng.Intn(len(ds.Tags))]
			addPostNoCatalog(b, ds, ds.RandPerson(rng), forum, tag)
		case 3, 4, 5, 6: // add comment
			addCommentNoCatalog(b, ds, ds.RandPerson(rng), ds.RandMessage(rng))
		default: // add friendship
			AddFriendship(b, ds.RandPerson(rng), ds.RandPerson(rng))
		}
		res.Updates.Record(time.Since(t0))
	}
}

// addPostNoCatalog is AddPost without mutating the shared Dataset catalog
// (the driver runs concurrently; the catalog is fixed at generation time).
func addPostNoCatalog(b Backend, ds *Dataset, person, forum, tag int64) {
	b.Update(func(w WriteTx) error {
		post, err := w.AddVertex(EncodeMessage(KindPost, Message{Content: "p", CreationDate: time.Now().UnixNano()}))
		if err != nil {
			return err
		}
		if err := w.AddEdge(person, LCreated, post, nil); err != nil {
			return err
		}
		if err := w.AddEdge(post, LHasCreator, person, nil); err != nil {
			return err
		}
		if err := w.AddEdge(forum, LContainerOf, post, nil); err != nil {
			return err
		}
		return w.AddEdge(post, LHasTag, tag, nil)
	})
}

func addCommentNoCatalog(b Backend, ds *Dataset, person, parent int64) {
	b.Update(func(w WriteTx) error {
		c, err := w.AddVertex(EncodeMessage(KindComment, Message{Content: "c", CreationDate: time.Now().UnixNano()}))
		if err != nil {
			return err
		}
		if err := w.AddEdge(person, LCreated, c, nil); err != nil {
			return err
		}
		if err := w.AddEdge(c, LHasCreator, person, nil); err != nil {
			return err
		}
		if err := w.AddEdge(c, LReplyOf, parent, nil); err != nil {
			return err
		}
		return w.AddEdge(parent, LHasReply, c, nil)
	})
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"livegraph/internal/core"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// checkExpositionFormat validates Prometheus 0.0.4 text exposition the way
// a scraper would: only HELP/TYPE comments, every sample line parseable,
// histogram buckets cumulative and consistent with their _count.
func checkExpositionFormat(t *testing.T, out string) {
	t.Helper()
	if out == "" {
		t.Fatal("empty exposition")
	}
	infBuckets := map[string]uint64{}
	counts := map[string]uint64{}
	lastCum := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if val == "" {
			t.Fatalf("empty value in %q", line)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
			name = series[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			base := strings.TrimSuffix(name, "_bucket")
			var v int64
			if _, err := fmt.Sscan(val, &v); err != nil {
				t.Fatalf("non-numeric bucket count %q: %v", line, err)
			}
			if v < lastCum[base] {
				t.Fatalf("non-monotone buckets for %s: %d after %d", base, v, lastCum[base])
			}
			lastCum[base] = v
			if strings.Contains(series, `le="+Inf"`) {
				infBuckets[base] = uint64(v)
			}
		}
		if strings.HasSuffix(name, "_count") {
			var v uint64
			if _, err := fmt.Sscan(val, &v); err != nil {
				t.Fatalf("non-numeric count %q: %v", line, err)
			}
			counts[strings.TrimSuffix(name, "_count")] = v
		}
	}
	for base, c := range counts {
		if inf, ok := infBuckets[base]; ok && inf != c {
			t.Errorf("%s: +Inf bucket %d != count %d", base, inf, c)
		}
	}
}

// TestScrapeUnderLoad hammers /metrics, /v1/stats and /v1/traces while
// writers and traversals run, validating every scrape. With -race this is
// the data-race check on the whole observability read path; the histogram
// quantile-vs-reference-sort correctness test lives with the histogram
// (internal/obs).
func TestScrapeUnderLoad(t *testing.T) {
	c, g := startServer(t, core.Options{
		Obs: core.ObsOptions{TraceSampleRate: 1, SlowOpThreshold: time.Nanosecond},
	})
	base := strings.TrimSuffix(c.Base, "/")

	ids, err := c.Tx(Op{Op: "addVertex"}, Op{Op: "addVertex"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var loadWg, wg sync.WaitGroup

	// Writers: keep the commit pipeline (and its histograms) busy.
	for w := 0; w < 2; w++ {
		loadWg.Add(1)
		go func(w int) {
			defer loadWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Tx(Op{Op: "insertEdge", Src: ids[0], Label: int64(w), Dst: ids[1], Props: []byte("p")}); err != nil {
					t.Errorf("tx: %v", err)
					return
				}
				_ = i
			}
		}(w)
	}
	// Traversals: exercise the hop histogram and traverse spans.
	loadWg.Add(1)
	go func() {
		defer loadWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := c.Traverse(ids[0], []int64{0}, &TraverseOptions{Dedup: true}); err != nil {
				t.Errorf("traverse: %v", err)
				return
			}
		}
	}()

	// Scrapers: every endpoint validated on every hit.
	endpoints := []string{"/metrics", "/v1/stats", "/v1/traces", "/v1/traces?slow=1&n=8"}
	for _, ep := range endpoints {
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				code, body := httpGet(t, base+ep)
				if code != http.StatusOK {
					t.Errorf("GET %s: status %d", ep, code)
					return
				}
				switch {
				case ep == "/metrics":
					checkExpositionFormat(t, body)
				case ep == "/v1/stats":
					var st map[string]int64
					if err := json.Unmarshal([]byte(body), &st); err != nil {
						t.Errorf("stats decode: %v", err)
						return
					}
					if st["statsSchemaVersion"] != statsSchemaVersion {
						t.Errorf("statsSchemaVersion = %d", st["statsSchemaVersion"])
						return
					}
					if _, ok := st["uptimeSeconds"]; !ok {
						t.Error("uptimeSeconds missing")
						return
					}
				default:
					var tr TracesResponse
					if err := json.Unmarshal([]byte(body), &tr); err != nil {
						t.Errorf("traces decode: %v", err)
						return
					}
					if !tr.Enabled {
						t.Error("tracing should be enabled")
						return
					}
				}
			}
		}(ep)
	}

	// Let the scrapers finish their iterations, then stop the load.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scrape-under-load timed out")
	}
	close(stop)
	loadWg.Wait()

	// The final exposition must show the hot-path histograms populated.
	_, body := httpGet(t, base+"/metrics")
	for _, h := range []string{"lg_commit_latency_seconds_count", "lg_traversal_seconds_count", "lg_traversal_hop_seconds_count"} {
		if !strings.Contains(body, h) {
			t.Errorf("exposition missing %s", h)
		}
	}
	// And the trace ring must have captured span trees.
	_, tbody := httpGet(t, base+"/v1/traces?n=4")
	var tr TracesResponse
	if err := json.Unmarshal([]byte(tbody), &tr); err != nil || len(tr.Traces) == 0 {
		t.Fatalf("no traces captured (err=%v, body=%s)", err, tbody)
	}
	_ = g
}

func TestTraverseExplain(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	ids, err := c.Tx(Op{Op: "addVertex"}, Op{Op: "addVertex"}, Op{Op: "addVertex"}, Op{Op: "addVertex"})
	if err != nil {
		t.Fatal(err)
	}
	// a -> {b, c}, b -> d, c -> d: dedup is per hop, so hop 2's frontier
	// {b, c} reaching d twice produces exactly one dedup hit.
	if _, err := c.Tx(
		Op{Op: "insertEdge", Src: ids[0], Label: 1, Dst: ids[1]},
		Op{Op: "insertEdge", Src: ids[0], Label: 1, Dst: ids[2]},
		Op{Op: "insertEdge", Src: ids[1], Label: 1, Dst: ids[3]},
		Op{Op: "insertEdge", Src: ids[2], Label: 1, Dst: ids[3]},
	); err != nil {
		t.Fatal(err)
	}

	// Plan-only: compiled, not executed.
	plan, err := c.ExplainPlan(ids[0], []int64{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Executed || len(plan.Hops) != 2 {
		t.Fatalf("plan %+v", plan)
	}
	if plan.Hops[0].Kind != "out" || plan.Hops[0].FrontierOut != 0 {
		t.Fatalf("plan hop 0 %+v", plan.Hops[0])
	}

	// Executed: runtime annotations filled in.
	resp, err := c.TraverseExplain(ids[0], []int64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := resp.Explain
	if ex == nil || !ex.Executed {
		t.Fatalf("explain %+v", ex)
	}
	if len(resp.Vertices) != 2 || ex.ResultCount != 2 {
		t.Fatalf("vertices %v, resultCount %d", resp.Vertices, ex.ResultCount)
	}
	if h := ex.Hops[0]; h.FrontierIn != 1 || h.FrontierOut != 2 {
		t.Fatalf("hop 0 %+v", h)
	}

	// Dedup hits counted on the annotated run.
	resp, err = c.TraverseExplain(ids[0], []int64{1, 1}, &TraverseOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, h := range resp.Explain.Hops {
		total += h.DedupHits
	}
	if total == 0 {
		t.Fatalf("expected dedup hits, got %+v", resp.Explain.Hops)
	}

	// The hop that builds the label's reverse index says so, once, and the
	// field survives both ends' JSON.
	for _, wantBuild := range []bool{true, false} {
		resp, err = c.TraverseExplain(ids[0], []int64{1, 1}, &TraverseOptions{Dedup: true, Direction: "bottomup"})
		if err != nil {
			t.Fatal(err)
		}
		h0, h1 := resp.Explain.Hops[0], resp.Explain.Hops[1]
		if h0.Direction != "bottomup" || (h0.IndexBuildUs > 0) != wantBuild || h1.IndexBuildUs != 0 || len(resp.Vertices) != 1 {
			t.Fatalf("bottom-up explain, build expected %v: %+v", wantBuild, resp.Explain.Hops)
		}
	}

	// Plain traversal responses must not grow an explain field.
	code, body := httpGet(t, strings.TrimSuffix(c.Base, "/")+fmt.Sprintf("/v1/traverse/%d?out=1", ids[0]))
	if code != http.StatusOK || strings.Contains(body, "explain") {
		t.Fatalf("plain traverse leaked explain: %d %s", code, body)
	}
}

func TestExplainReportsBudgetCut(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	ids, err := c.Tx(Op{Op: "addVertex"}, Op{Op: "addVertex"}, Op{Op: "addVertex"}, Op{Op: "addVertex"})
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for _, dst := range ids[1:] {
		ops = append(ops, Op{Op: "insertEdge", Src: ids[0], Label: 1, Dst: dst})
	}
	if _, err := c.Tx(ops...); err != nil {
		t.Fatal(err)
	}
	resp, err := c.TraverseExplain(ids[0], []int64{1}, &TraverseOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Vertices) != 2 {
		t.Fatalf("vertices %v", resp.Vertices)
	}
	if cut := resp.Explain.Hops[0].BudgetCut; cut != "limit" {
		t.Fatalf("budgetCut = %q, want limit (%+v)", cut, resp.Explain.Hops[0])
	}
}

func TestPprofGated(t *testing.T) {
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	s := New(g)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _ := httpGet(t, ts.URL+"/debug/pprof/"); code != http.StatusForbidden {
		t.Fatalf("pprof should be gated, got %d", code)
	}
	s.EnablePprof = true
	code, body := httpGet(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
}

func TestTracesDisabled(t *testing.T) {
	c, _ := startServer(t, core.Options{Obs: core.ObsOptions{TraceSampleRate: -1}})
	_, body := httpGet(t, strings.TrimSuffix(c.Base, "/")+"/v1/traces")
	var tr TracesResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled || len(tr.Traces) != 0 {
		t.Fatalf("expected disabled tracing, got %+v", tr)
	}
}

// engineStatsKeys is the frozen /v1/stats surface every server reports;
// shipperStatsKeyNames and applierStatsKeyNames are what a primary with
// a WAL to ship and a follower add. Clients decode the payload as
// map[string]int64 and dashboards key on these names: a PR that adds,
// drops or renames one must change this list on purpose.
var (
	engineStatsKeys = []string{
		"statsSchemaVersion", "uptimeSeconds",
		"commits", "aborts", "compactions", "upgrades", "bloomSkips", "vertices", "readEpoch",
		"allocatedBlocks", "allocatedBytes", "durableEpoch", "appliedEpoch", "walAppendedBytes",
		"maintPasses", "maintSlices", "maintSlicesYielded", "maintVerticesCompacted",
		"maintEntriesScanned", "maintEntriesCopied", "maintEntriesDead", "maintVersionsPruned",
		"maintBlocksReclaimed", "maintBytesReclaimed", "maintPassNanos", "maintLastPassNanos",
		"maintDirtyPending", "maintDeadBytesEst",
		"ckptFulls", "ckptDeltas", "ckptLastNanos", "ckptLastBytes", "ckptChainLen", "ckptPruneErrors",
	}
	shipperStatsKeyNames = []string{"replStreams", "replStreamedGroups", "replStreamedBytes"}
	applierStatsKeyNames = []string{"replSourceEpoch", "replLagEpochs", "replAppliedGroups", "replAppliedBytes", "replReconnects"}
)

func statsOf(t *testing.T, url string) map[string]int64 {
	t.Helper()
	code, body := httpGet(t, url+"/v1/stats")
	if code != 200 {
		t.Fatalf("/v1/stats = %d: %s", code, body)
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("/v1/stats does not decode as map[string]int64: %v\n%s", err, body)
	}
	return m
}

func checkStatsKeys(t *testing.T, who string, got map[string]int64, want ...[]string) {
	t.Helper()
	wantSet := map[string]bool{}
	for _, ks := range want {
		for _, k := range ks {
			wantSet[k] = true
		}
	}
	for k := range got {
		if !wantSet[k] {
			t.Errorf("%s: /v1/stats has unexpected key %q", who, k)
		}
	}
	for k := range wantSet {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: /v1/stats lost key %q", who, k)
		}
	}
}

// TestStatsKeysFrozen pins the /v1/stats compatibility surface: the exact
// key set of a volatile server, a shipping primary and a follower, and —
// after a scripted commit, checkpoint and compaction — that the legacy
// …Nanos keys are the …_seconds instruments in the old unit.
func TestStatsKeysFrozen(t *testing.T) {
	vg, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vg.Close()
	hv := httptest.NewServer(New(vg))
	defer hv.Close()
	checkStatsKeys(t, "volatile", statsOf(t, hv.URL), engineStatsKeys)

	primaryURL, followerURL, pg, _, _ := replPair(t, false)
	checkStatsKeys(t, "follower", statsOf(t, followerURL), engineStatsKeys, applierStatsKeyNames)

	pc := NewClient(primaryURL)
	if _, err := pc.Tx(Op{Op: "addVertex", Data: []byte("a")}, Op{Op: "addVertex", Data: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Tx(Op{Op: "upsertEdge", Src: 0, Label: 0, Dst: 1, Props: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Tx(Op{Op: "upsertEdge", Src: 0, Label: 0, Dst: 1, Props: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	if err := pc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pg.CompactNow()

	got := statsOf(t, primaryURL)
	checkStatsKeys(t, "primary", got, engineStatsKeys, shipperStatsKeyNames)
	if got["statsSchemaVersion"] != 2 {
		t.Errorf("statsSchemaVersion = %d, want 2", got["statsSchemaVersion"])
	}
	if got["commits"] != 3 || got["ckptFulls"] != 1 || got["maintPasses"] < 1 {
		t.Errorf("commits=%d ckptFulls=%d maintPasses=%d after 3 commits, 1 checkpoint, compaction",
			got["commits"], got["ckptFulls"], got["maintPasses"])
	}
	if got["appliedEpoch"] != got["readEpoch"] || got["readEpoch"] != pg.ReadEpoch() {
		t.Errorf("appliedEpoch=%d readEpoch=%d, graph read epoch %d", got["appliedEpoch"], got["readEpoch"], pg.ReadEpoch())
	}
	// The graph is idle, so the registry and the stats payload read the
	// same values; the legacy keys carry them in nanoseconds.
	snap := pg.Obs().Snapshot()
	for key, inst := range map[string]string{
		"maintPassNanos":     "lg_maint_pass_seconds_total",
		"maintLastPassNanos": "lg_maint_last_pass_seconds",
		"ckptLastNanos":      "lg_ckpt_last_seconds",
	} {
		want := int64(math.Round(snap[inst].Value * 1e9))
		if got[key] != want || want <= 0 {
			t.Errorf("%s = %d, want %s × 1e9 = %d (> 0)", key, got[key], inst, want)
		}
	}
}

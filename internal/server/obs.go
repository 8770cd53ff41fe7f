package server

// Observability endpoints: Prometheus text exposition, the recent/slow
// trace rings, and (opt-in) the pprof profiling surface. All three read
// the graph's obs.Registry / obs.Tracer — the same instruments behind
// /v1/stats — so there is exactly one source of truth for every counter.
//
//	GET /metrics                 -> Prometheus 0.0.4 text exposition
//	GET /v1/traces?n=32          -> recent sampled span trees (JSON)
//	GET /v1/traces?slow=1        -> slow-op log (span trees ≥ threshold)
//	GET /debug/pprof/*           -> net/http/pprof, only when EnablePprof
import (
	"math"
	"net/http"
	"net/http/pprof"
	"strings"

	"livegraph/internal/metrics"
	"livegraph/internal/obs"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.G.Obs().WritePrometheus(w)
}

// TracesResponse is the GET /v1/traces payload.
type TracesResponse struct {
	Traces []obs.SpanSnapshot `json:"traces"`
	// Enabled is false when tracing is off (Obs.Disable or a negative
	// sample rate), distinguishing "no traces yet" from "never any".
	Enabled bool `json:"enabled"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	n, err := queryInt("n", query.Get("n"), 32)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	slow := false
	switch q := query.Get("slow"); q {
	case "1", "true":
		slow = true
	case "", "0", "false":
	default:
		httpErr(w, http.StatusBadRequest, "slow=%q: want 1/true/0/false", q)
		return
	}
	resp := TracesResponse{Traces: []obs.SpanSnapshot{}}
	if tr := s.G.Tracer(); tr != nil {
		resp.Enabled = true
		if slow {
			resp.Traces = tr.Slow(int(n))
		} else {
			resp.Traces = tr.Recent(int(n))
		}
	}
	writeJSON(w, resp)
}

// handlePprof serves net/http/pprof behind the EnablePprof flag: the
// endpoints expose goroutine stacks and heap contents, so they stay off
// unless the operator asked for them (lgserver -pprof).
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !s.EnablePprof {
		httpErr(w, http.StatusForbidden, "pprof disabled (enable with lgserver -pprof)")
		return
	}
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// registerShipperObs folds the primary-side replication counters into the
// graph's registry so /metrics and /v1/stats read them like every other
// instrument.
func registerShipperObs(reg *obs.Registry, st *metrics.ReplStats) {
	reg.GaugeFunc("lg_repl_streams_open", "replication streams currently connected",
		func() float64 { return float64(st.StreamsOpen.Load()) })
	reg.CounterFunc("lg_repl_streamed_groups_total", "commit groups shipped to replicas",
		func() float64 { return float64(st.StreamedGroups.Load()) })
	reg.CounterFunc("lg_repl_streamed_bytes_total", "bytes shipped to replicas (frames incl. heartbeats)",
		func() float64 { return float64(st.StreamedBytes.Load()) })
}

// registerApplierObs folds the follower-side replication counters into
// the replica graph's registry.
func registerApplierObs(reg *obs.Registry, st *metrics.ReplStats) {
	reg.GaugeFunc("lg_repl_source_epoch", "primary's durable epoch as last heard",
		func() float64 { return float64(st.SourceEpoch.Load()) })
	reg.GaugeFunc("lg_repl_lag_epochs", "epochs the replica trails the primary",
		func() float64 { return float64(st.LagEpochs()) })
	reg.CounterFunc("lg_repl_applied_groups_total", "commit groups applied from the stream",
		func() float64 { return float64(st.AppliedGroups.Load()) })
	reg.CounterFunc("lg_repl_applied_bytes_total", "bytes applied from the stream",
		func() float64 { return float64(st.AppliedBytes.Load()) })
	reg.CounterFunc("lg_repl_reconnects_total", "stream reconnections",
		func() float64 { return float64(st.Reconnects.Load()) })
}

// statsSchemaVersion is reported as statsSchemaVersion in /v1/stats.
// Version 2 is the registry-backed snapshot: every legacy key is intact
// (same names, same units) plus uptimeSeconds and this version marker.
const statsSchemaVersion = 2

// statsKeys maps each legacy /v1/stats key to its canonical registry
// instrument. scale converts the instrument's unit back to the legacy
// one (seconds → nanos); 0 means 1.
var statsKeys = []struct {
	legacy string
	inst   string
	scale  float64
}{
	{"commits", "lg_core_commits_total", 0},
	{"aborts", "lg_core_aborts_total", 0},
	{"compactions", "lg_core_compactions_total", 0},
	{"upgrades", "lg_core_upgrades_total", 0},
	{"bloomSkips", "lg_core_bloom_skips_total", 0},
	{"vertices", "lg_core_vertices", 0},
	{"readEpoch", "lg_core_read_epoch", 0},
	{"allocatedBlocks", "lg_alloc_blocks", 0},
	{"allocatedBytes", "lg_alloc_bytes", 0},
	{"durableEpoch", "lg_core_durable_epoch", 0},
	{"appliedEpoch", "lg_core_read_epoch", 0},
	{"walAppendedBytes", "lg_wal_appended_bytes_total", 0},
	{"maintPasses", "lg_maint_passes_total", 0},
	{"maintSlices", "lg_maint_slices_total", 0},
	{"maintSlicesYielded", "lg_maint_slices_yielded_total", 0},
	{"maintVerticesCompacted", "lg_maint_vertices_compacted_total", 0},
	{"maintEntriesScanned", "lg_maint_entries_scanned_total", 0},
	{"maintEntriesCopied", "lg_maint_entries_copied_total", 0},
	{"maintEntriesDead", "lg_maint_entries_dead_total", 0},
	{"maintVersionsPruned", "lg_maint_versions_pruned_total", 0},
	{"maintBlocksReclaimed", "lg_maint_blocks_reclaimed_total", 0},
	{"maintBytesReclaimed", "lg_maint_bytes_reclaimed_total", 0},
	{"maintPassNanos", "lg_maint_pass_seconds_total", 1e9},
	{"maintLastPassNanos", "lg_maint_last_pass_seconds", 1e9},
	{"maintDirtyPending", "lg_maint_dirty_pending", 0},
	{"maintDeadBytesEst", "lg_maint_dead_bytes_est", 0},
	{"ckptFulls", "lg_ckpt_fulls_total", 0},
	{"ckptDeltas", "lg_ckpt_deltas_total", 0},
	{"ckptLastNanos", "lg_ckpt_last_seconds", 1e9},
	{"ckptLastBytes", "lg_ckpt_last_bytes", 0},
	{"ckptChainLen", "lg_ckpt_chain_len", 0},
	{"ckptPruneErrors", "lg_ckpt_prune_errors_total", 0},
}

var shipperStatsKeys = []struct {
	legacy string
	inst   string
}{
	{"replStreams", "lg_repl_streams_open"},
	{"replStreamedGroups", "lg_repl_streamed_groups_total"},
	{"replStreamedBytes", "lg_repl_streamed_bytes_total"},
}

var applierStatsKeys = []struct {
	legacy string
	inst   string
}{
	{"replSourceEpoch", "lg_repl_source_epoch"},
	{"replLagEpochs", "lg_repl_lag_epochs"},
	{"replAppliedGroups", "lg_repl_applied_groups_total"},
	{"replAppliedBytes", "lg_repl_applied_bytes_total"},
	{"replReconnects", "lg_repl_reconnects_total"},
}

// handleStats serves the legacy flat-JSON counter dump out of one
// registry snapshot: every pre-registry key keeps its name and unit, so
// dashboards and the bench drivers keep working, while the numbers come
// from exactly the instruments /metrics exposes.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.G.Obs().Snapshot()
	legacyInt := func(inst string, scale float64) int64 {
		v := snap[inst].Value
		if scale != 0 {
			v *= scale
		}
		return int64(math.Round(v))
	}
	// uptimeSeconds is truncated to whole seconds: the legacy payload is
	// uniformly integer-valued and existing consumers decode it as such.
	out := map[string]any{
		"statsSchemaVersion": statsSchemaVersion,
		"uptimeSeconds":      int64(snap["lg_core_uptime_seconds"].Value),
	}
	for _, k := range statsKeys {
		out[k.legacy] = legacyInt(k.inst, k.scale)
	}
	if s.Shipper != nil {
		for _, k := range shipperStatsKeys {
			out[k.legacy] = legacyInt(k.inst, 0)
		}
	}
	if s.Applier != nil {
		for _, k := range applierStatsKeys {
			out[k.legacy] = legacyInt(k.inst, 0)
		}
	}
	writeJSON(w, out)
}

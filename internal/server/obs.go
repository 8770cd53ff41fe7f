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

	"livegraph/internal/obs"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.G.Obs().WritePrometheus(w)
}

// TracesResponse is the GET /v1/traces payload.
type TracesResponse struct {
	Traces []obs.SpanSnapshot `json:"traces"`
	// Enabled is false when tracing is off (a negative sample rate),
	// distinguishing "no traces yet" from "never any".
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

// statsSchemaVersion is reported as statsSchemaVersion in /v1/stats.
// Version 2 is the registry-backed snapshot: every legacy key is intact
// (same names, same units) plus uptimeSeconds and this version marker.
const statsSchemaVersion = 2

// statsRole says which servers report a /v1/stats key.
type statsRole uint8

const (
	roleAlways  statsRole = iota
	roleShipper           // a primary with a WAL to ship (Server.Shipper set)
	roleApplier           // a follower (Server.Applier set)
)

// statsKeys is the one table behind /v1/stats: each legacy key, the
// registry instrument it reads, the scale that converts the instrument's
// unit back to the legacy one (seconds → nanos; 0 means 1), and which
// servers report it.
var statsKeys = []struct {
	legacy string
	inst   string
	scale  float64
	role   statsRole
}{
	{"commits", "lg_core_commits_total", 0, roleAlways},
	{"aborts", "lg_core_aborts_total", 0, roleAlways},
	{"compactions", "lg_core_compactions_total", 0, roleAlways},
	{"upgrades", "lg_core_upgrades_total", 0, roleAlways},
	{"bloomSkips", "lg_core_bloom_skips_total", 0, roleAlways},
	{"vertices", "lg_core_vertices", 0, roleAlways},
	{"readEpoch", "lg_core_read_epoch", 0, roleAlways},
	{"allocatedBlocks", "lg_alloc_blocks", 0, roleAlways},
	{"allocatedBytes", "lg_alloc_bytes", 0, roleAlways},
	{"durableEpoch", "lg_core_durable_epoch", 0, roleAlways},
	{"appliedEpoch", "lg_core_read_epoch", 0, roleAlways},
	{"walAppendedBytes", "lg_wal_appended_bytes_total", 0, roleAlways},
	{"maintPasses", "lg_maint_passes_total", 0, roleAlways},
	{"maintSlices", "lg_maint_slices_total", 0, roleAlways},
	{"maintSlicesYielded", "lg_maint_slices_yielded_total", 0, roleAlways},
	{"maintVerticesCompacted", "lg_maint_vertices_compacted_total", 0, roleAlways},
	{"maintEntriesScanned", "lg_maint_entries_scanned_total", 0, roleAlways},
	{"maintEntriesCopied", "lg_maint_entries_copied_total", 0, roleAlways},
	{"maintEntriesDead", "lg_maint_entries_dead_total", 0, roleAlways},
	{"maintVersionsPruned", "lg_maint_versions_pruned_total", 0, roleAlways},
	{"maintBlocksReclaimed", "lg_maint_blocks_reclaimed_total", 0, roleAlways},
	{"maintBytesReclaimed", "lg_maint_bytes_reclaimed_total", 0, roleAlways},
	{"maintPassNanos", "lg_maint_pass_seconds_total", 1e9, roleAlways},
	{"maintLastPassNanos", "lg_maint_last_pass_seconds", 1e9, roleAlways},
	{"maintDirtyPending", "lg_maint_dirty_pending", 0, roleAlways},
	{"maintDeadBytesEst", "lg_maint_dead_bytes_est", 0, roleAlways},
	{"ckptFulls", "lg_ckpt_fulls_total", 0, roleAlways},
	{"ckptDeltas", "lg_ckpt_deltas_total", 0, roleAlways},
	{"ckptLastNanos", "lg_ckpt_last_seconds", 1e9, roleAlways},
	{"ckptLastBytes", "lg_ckpt_last_bytes", 0, roleAlways},
	{"ckptChainLen", "lg_ckpt_chain_len", 0, roleAlways},
	{"ckptPruneErrors", "lg_ckpt_prune_errors_total", 0, roleAlways},
	{"replStreams", "lg_repl_streams_open", 0, roleShipper},
	{"replStreamedGroups", "lg_repl_streamed_groups_total", 0, roleShipper},
	{"replStreamedBytes", "lg_repl_streamed_bytes_total", 0, roleShipper},
	{"replSourceEpoch", "lg_repl_source_epoch", 0, roleApplier},
	{"replLagEpochs", "lg_repl_lag_epochs", 0, roleApplier},
	{"replAppliedGroups", "lg_repl_applied_groups_total", 0, roleApplier},
	{"replAppliedBytes", "lg_repl_applied_bytes_total", 0, roleApplier},
	{"replReconnects", "lg_repl_reconnects_total", 0, roleApplier},
}

// handleStats serves the legacy flat-JSON counter dump out of one
// registry snapshot: every pre-registry key keeps its name and unit, so
// dashboards and the bench drivers keep working, while the numbers come
// from exactly the instruments /metrics exposes.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.G.Obs().Snapshot()
	// uptimeSeconds is truncated to whole seconds: the legacy payload is
	// uniformly integer-valued and existing consumers decode it as such.
	out := map[string]any{
		"statsSchemaVersion": statsSchemaVersion,
		"uptimeSeconds":      int64(snap["lg_core_uptime_seconds"].Value),
	}
	for _, k := range statsKeys {
		if k.role == roleShipper && s.Shipper == nil || k.role == roleApplier && s.Applier == nil {
			continue
		}
		v := snap[k.inst].Value
		if k.scale != 0 {
			v *= k.scale
		}
		out[k.legacy] = int64(math.Round(v))
	}
	writeJSON(w, out)
}

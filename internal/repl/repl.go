// Package repl implements WAL-shipping replication: the first scale-out
// axis of the engine. A primary ships its write-ahead log to any number
// of read replicas, each of which applies complete commit groups into a
// live graph and serves every read endpoint at its applied epoch.
//
// The design falls out of two properties the engine already has. The WAL
// is epoch-ordered, one checksummed frame per commit group (internal/wal),
// so a replica that has applied a prefix of epochs holds a state the
// primary itself passed through — replication is just replay, shifted in
// time.
// And MVCC visibility is decided purely by epoch comparison, so advancing
// the replica's read epoch only at group boundaries (core.Graph.ApplyEpoch)
// makes every replica snapshot transactionally consistent with no
// coordination at all.
//
// The wire protocol is a single chunked HTTP response:
//
//	GET /v1/repl/stream?after=<epoch>
//
// streams length-prefixed frames, one per commit group, in epoch order:
//
//	[8B epoch LE][4B record count LE]{[4B len LE][record bytes]}...
//
// A frame with record count 0 is a heartbeat carrying the primary's
// current durable epoch, so an idle replica still knows its staleness.
// The stream is resumable: `after` is the replica's applied epoch, and
// the primary replays from exactly that position (mid-segment is fine) —
// reconnecting can neither skip nor re-deliver a group. If the requested
// epochs were checkpointed away the primary answers 410 Gone; the replica
// then needs a full resync (checkpoint transfer — a planned follow-up),
// not a reconnect.
//
// Staleness is bounded, not hidden: both sides track lag in epochs and
// bytes (Stats, surfaced in /metrics and /v1/stats), and the HTTP client
// routes reads needing fresher data than a replica can prove it has back
// to the primary (the X-Livegraph-Min-Epoch precondition).
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"livegraph/internal/obs"
)

// Stats tracks WAL-shipping replication progress. All fields are atomic
// counters or gauges; the zero value is ready to use.
//
// On the primary the Streamed* fields count what left over replication
// streams; on a replica the Applied*/SourceEpoch fields track how far the
// applier has caught up to the primary's durable epoch. NewShipper and
// NewApplier register their half as lg_repl_* instruments of the graph's
// registry, which is where /metrics and /v1/stats read them.
type Stats struct {
	StreamsOpen    atomic.Int64 // primary: replication streams currently open
	StreamedGroups atomic.Int64 // primary: commit groups shipped
	StreamedBytes  atomic.Int64 // primary: frame bytes shipped

	AppliedGroups atomic.Int64 // replica: commit groups applied
	AppliedBytes  atomic.Int64 // replica: frame bytes applied
	AppliedEpoch  atomic.Int64 // replica: newest epoch applied
	SourceEpoch   atomic.Int64 // replica: primary's durable epoch, as last heard
	Reconnects    atomic.Int64 // replica: stream reconnect attempts
}

// ObserveSourceEpoch folds a primary-epoch observation into SourceEpoch
// (monotonic: stream frames and heartbeats may interleave out of order
// across reconnects).
func (r *Stats) ObserveSourceEpoch(e int64) {
	for {
		cur := r.SourceEpoch.Load()
		if e <= cur || r.SourceEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// LagEpochs returns the replica's staleness in epochs — how many commit
// groups (at most) the primary has durably committed that the replica has
// not applied. 0 on a fully caught-up replica.
func (r *Stats) LagEpochs() int64 {
	lag := r.SourceEpoch.Load() - r.AppliedEpoch.Load()
	if lag < 0 {
		return 0
	}
	return lag
}

// registerShipper exposes the primary-side counters in reg.
func (r *Stats) registerShipper(reg *obs.Registry) {
	reg.GaugeFunc("lg_repl_streams_open", "replication streams currently connected",
		func() float64 { return float64(r.StreamsOpen.Load()) })
	reg.CounterFunc("lg_repl_streamed_groups_total", "commit groups shipped to replicas",
		func() float64 { return float64(r.StreamedGroups.Load()) })
	reg.CounterFunc("lg_repl_streamed_bytes_total", "bytes shipped to replicas (frames incl. heartbeats)",
		func() float64 { return float64(r.StreamedBytes.Load()) })
}

// registerApplier exposes the follower-side counters in reg.
func (r *Stats) registerApplier(reg *obs.Registry) {
	reg.GaugeFunc("lg_repl_source_epoch", "primary's durable epoch as last heard",
		func() float64 { return float64(r.SourceEpoch.Load()) })
	reg.GaugeFunc("lg_repl_lag_epochs", "epochs the replica trails the primary",
		func() float64 { return float64(r.LagEpochs()) })
	reg.CounterFunc("lg_repl_applied_groups_total", "commit groups applied from the stream",
		func() float64 { return float64(r.AppliedGroups.Load()) })
	reg.CounterFunc("lg_repl_applied_bytes_total", "bytes applied from the stream",
		func() float64 { return float64(r.AppliedBytes.Load()) })
	reg.CounterFunc("lg_repl_reconnects_total", "stream reconnections",
		func() float64 { return float64(r.Reconnects.Load()) })
}

// frameHeaderSize is the fixed frame prefix: epoch + record count.
const frameHeaderSize = 12

// heartbeat frames carry no records.
const maxFrameRecs = 1 << 20

// appendFrame serialises one stream frame into buf (a heartbeat when recs
// is empty: epoch then carries the primary's durable epoch).
func appendFrame(buf []byte, epoch int64, recs [][]byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(epoch))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
		buf = append(buf, rec...)
	}
	return buf
}

// readFrame reads one frame, returning its epoch, records (nil for a
// heartbeat) and total wire size. io.EOF (possibly wrapped) reports a
// closed stream.
func readFrame(r *bufio.Reader) (epoch int64, recs [][]byte, n int64, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	epoch = int64(binary.LittleEndian.Uint64(hdr[0:8]))
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if count > maxFrameRecs {
		return 0, nil, 0, fmt.Errorf("repl: implausible frame record count %d", count)
	}
	n = frameHeaderSize
	if count == 0 {
		return epoch, nil, n, nil // heartbeat
	}
	recs = make([][]byte, count)
	for i := range recs {
		var lenb [4]byte
		if _, err := io.ReadFull(r, lenb[:]); err != nil {
			return 0, nil, 0, fmt.Errorf("repl: truncated frame: %w", err)
		}
		l := binary.LittleEndian.Uint32(lenb[:])
		if l > 1<<30 {
			return 0, nil, 0, fmt.Errorf("repl: implausible record length %d", l)
		}
		rec := make([]byte, l)
		if _, err := io.ReadFull(r, rec); err != nil {
			return 0, nil, 0, fmt.Errorf("repl: truncated frame: %w", err)
		}
		recs[i] = rec
		n += 4 + int64(l)
	}
	return epoch, recs, n, nil
}

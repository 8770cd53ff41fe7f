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
// bytes (metrics.ReplStats, surfaced in /v1/stats), and the HTTP client
// routes reads needing fresher data than a replica can prove it has back
// to the primary (the X-Livegraph-Min-Epoch precondition).
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

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

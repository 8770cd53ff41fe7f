package core

// Op record encoding: a WAL record is one transaction, a flat sequence of
// ops. Varint-encoded for compactness; the format is internal to this
// package. decodeOps is its one reader: recovery replays WAL records
// through it (replay.go), a follower applies stream records through it
// (apply.go), and checkpoint files hold the same ops (checkpoint.go).

import (
	"cmp"
	"encoding/binary"
	"fmt"
)

const (
	opAddVertex byte = iota + 1
	opPutVertex
	opDelVertex
	opInsertEdge
	opUpsertEdge
	opDeleteEdge
	// opResetVertex drops a vertex's payload and every one of its lists.
	// Only checkpoint files carry it: each vertex a checkpoint holds
	// opens with one, so a delta's record fully replaces its vertex.
	opResetVertex
)

func appendVertexOp(buf []byte, op byte, v VertexID, data []byte) []byte {
	buf = append(buf, op)
	buf = binary.AppendVarint(buf, int64(v))
	buf = binary.AppendVarint(buf, int64(len(data)))
	return append(buf, data...)
}

func appendEdgeOp(buf []byte, op byte, src VertexID, label Label, dst VertexID, props []byte) []byte {
	buf = append(buf, op)
	buf = binary.AppendVarint(buf, int64(src))
	buf = binary.AppendVarint(buf, int64(label))
	buf = binary.AppendVarint(buf, int64(dst))
	buf = binary.AppendVarint(buf, int64(len(props)))
	return append(buf, props...)
}

// walOp is a decoded WAL operation.
type walOp struct {
	op    byte
	v     VertexID // vertex ops: the vertex; edge ops: the source
	label Label
	dst   VertexID
	data  []byte
}

// decodeOps appends the ops of a record to ops. A varint that is
// truncated, overflows or is not minimal (a minimal encoding longer than
// one byte never ends in a zero byte) is malformed, so every accepted
// record re-encodes to exactly its own bytes. So is an op the write path
// refuses (ErrOutOfRange): a vertex or edge source outside
// [0, MaxVertexID), a negative destination or a label outside
// [0, MaxLabel). A source at or past MaxVertexID gets its own error, which
// names the bound: older versions wrote such records.
func decodeOps(ops []walOp, rec []byte) ([]walOp, error) {
	bad := ""
	num := func(what string) int64 {
		x, n := binary.Varint(rec)
		if n <= 0 || (n > 1 && rec[n-1] == 0) {
			bad = cmp.Or(bad, what)
			return 0
		}
		rec = rec[n:]
		return x
	}
	blob := func(what string) []byte {
		l := num(what)
		if l < 0 || l > int64(len(rec)) {
			bad = cmp.Or(bad, what)
			return nil
		}
		b := rec[:l:l]
		rec = rec[l:]
		return b
	}
	for len(rec) > 0 && bad == "" {
		op := walOp{op: rec[0]}
		rec = rec[1:]
		switch op.op {
		case opAddVertex, opPutVertex, opDelVertex, opResetVertex:
			op.v, op.data = VertexID(num("vertex id")), blob("vertex data")
		case opInsertEdge, opUpsertEdge, opDeleteEdge:
			op.v, op.label, op.dst = VertexID(num("edge src")), Label(num("edge label")), VertexID(num("edge dst"))
			op.data = blob("edge props")
		default:
			return nil, fmt.Errorf("livegraph: wal record corrupt (op %d)", op.op)
		}
		if bad == "" && op.v >= MaxVertexID {
			return nil, fmt.Errorf("livegraph: wal record names vertex or edge source %d, at or past MaxVertexID = 2^32; only a version without that bound writes one", op.v)
		}
		if op.v < 0 || op.dst < 0 || uint64(op.label) >= MaxLabel {
			bad = cmp.Or(bad, "vertex id or label out of range")
		}
		ops = append(ops, op)
	}
	if bad != "" {
		return nil, fmt.Errorf("livegraph: wal record corrupt (%s)", bad)
	}
	return ops, nil
}

package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeOps feeds arbitrary bytes to the one op decoder WAL replay,
// follower apply and checkpoint load share. Whatever the input: no panic,
// and an accepted record is exactly what the encoders write for the ops
// it decodes to.
func FuzzDecodeOps(f *testing.F) {
	var txRec []byte
	txRec = appendVertexOp(txRec, opAddVertex, 3, []byte("payload"))
	txRec = appendVertexOp(txRec, opPutVertex, 3, nil)
	txRec = appendVertexOp(txRec, opDelVertex, MaxVertexID-1, nil)
	txRec = appendEdgeOp(txRec, opInsertEdge, 3, 2, 1<<40, []byte("props"))
	txRec = appendEdgeOp(txRec, opUpsertEdge, 3, 2, 9, nil)
	txRec = appendEdgeOp(txRec, opDeleteEdge, 3, 2, 9, nil)
	ckptRec := appendVertexOp(nil, opResetVertex, 299, nil)
	ckptRec = appendVertexOp(ckptRec, opPutVertex, 299, []byte("y"))
	ckptRec = appendEdgeOp(ckptRec, opInsertEdge, 299, 0, 1, bytes.Repeat([]byte{7}, 32))
	f.Add(txRec)
	f.Add(ckptRec)
	f.Add(txRec[:len(txRec)-1])
	f.Add([]byte{opPutVertex, 0x80, 0x00, 0x00})       // non-minimal varint
	f.Add([]byte{opInsertEdge, 0, 0, 0, 0x7f})         // negative props length
	f.Add([]byte{0xEE, 0, 0})                          // unknown op
	f.Add([]byte{opAddVertex, 0xff, 0xff, 0xff, 0xff}) // truncated varint

	f.Fuzz(func(t *testing.T, rec []byte) {
		ops, err := decodeOps(nil, rec)
		if err != nil {
			if ops != nil {
				t.Fatalf("rejected record (%v) returned %d ops", err, len(ops))
			}
			return
		}
		var again []byte
		for _, op := range ops {
			switch op.op {
			case opAddVertex, opPutVertex, opDelVertex, opResetVertex:
				again = appendVertexOp(again, op.op, op.v, op.data)
			default:
				again = appendEdgeOp(again, op.op, op.v, op.label, op.dst, op.data)
			}
		}
		if !bytes.Equal(again, rec) {
			t.Fatalf("accepted record does not re-encode to its input:\n in  %x\n out %x", rec, again)
		}
	})
}

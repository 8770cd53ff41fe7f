package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the one frame decoder recovery,
// the tailer, the replication stream and checkpoint files share, once as
// a file (the input's size bounds a frame) and once as a Stream (nothing
// does). Whatever the input, in either mode: no panic, no allocation out
// of proportion to the input (a length field is not trusted past the
// bytes that exist or have arrived), never more bytes consumed than
// given, the same verdict in both modes, and an accepted frame is exactly
// what the writer would have produced for its contents.
func FuzzReadFrame(f *testing.F) {
	recs := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xAB}, 40)}
	valid := encodeFrame(f, 7, recs)
	if again := AppendFrame(nil, 7, recs); !bytes.Equal(again, valid) {
		f.Fatalf("AppendFrame and the log writer disagree:\n log    %x\n append %x", valid, again)
	}
	f.Add(valid)
	for i := range valid {
		f.Add(valid[:i])
	}
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+6] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), make([]byte, 64)...)) // zero-filled tail
	f.Add(make([]byte, 64))
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[8:12], MaxGroupBytes)
	f.Add(huge)
	empty := AppendFrame(nil, 9, nil) // a heartbeat, or a checkpoint's end marker
	f.Add(empty)
	f.Add(append(append([]byte(nil), empty...), valid...))
	emptyFlipped := append([]byte(nil), empty...)
	emptyFlipped[3] ^= 0x01
	f.Add(emptyFlipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		var verdict [2]error
		for i, limit := range []int64{int64(len(data)), Stream} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fr, err := ReadFrame(bytes.NewReader(data), limit)
			runtime.ReadMemStats(&after)
			// The record index costs at most a slice header per 4 input
			// bytes (doubled by append growth); a Stream's first body
			// chunk and the slack absorb the fuzz worker's own background
			// allocation.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
				t.Fatalf("limit %d: decoding %d bytes allocated %d", limit, len(data), grew)
			}
			verdict[i] = err
			if err != nil {
				if fr.Recs != nil || fr.Raw != nil {
					t.Fatalf("limit %d: rejected frame (%v) returned %d records, %d bytes", limit, err, len(fr.Recs), len(fr.Raw))
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrFrameDamaged) {
					t.Fatalf("limit %d: rejected with %v, want io.EOF or ErrFrameDamaged", limit, err)
				}
				continue
			}
			if len(fr.Raw) > len(data) || !bytes.Equal(fr.Raw, data[:len(fr.Raw)]) {
				t.Fatalf("limit %d: frame bytes %x are not a prefix of the input %x", limit, fr.Raw, data)
			}
			if again := AppendFrame(nil, fr.Epoch, fr.Recs); !bytes.Equal(again, fr.Raw) {
				t.Fatalf("limit %d: accepted frame does not re-encode to the bytes consumed:\n in  %x\n out %x", limit, fr.Raw, again)
			}
		}
		if (verdict[0] == nil) != (verdict[1] == nil) || errors.Is(verdict[0], io.EOF) != errors.Is(verdict[1], io.EOF) {
			t.Fatalf("file and stream verdicts differ: %v / %v", verdict[0], verdict[1])
		}
	})
}

// FuzzDecodeCheckpointMeta feeds arbitrary bytes to the CHECKPOINT pointer
// decoder: no panic, and what it accepts is a pointer that survives
// WriteCheckpointMeta's encoding unchanged.
func FuzzDecodeCheckpointMeta(f *testing.F) {
	for _, m := range []CheckpointMeta{{BaseEpoch: 40, DeltaEpochs: []int64{41, 42}, MinWALSeq: 3}, {BaseEpoch: 99}} {
		good := encodeCheckpointMeta(m)
		f.Add(good)
		f.Add(good[:len(good)-1])
	}
	f.Add([]byte("LGCKMET3\x2a\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCheckpointMeta(data)
		if err != nil {
			return
		}
		if again, err := decodeCheckpointMeta(encodeCheckpointMeta(m)); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("accepted %+v does not survive its own encoding: %+v, %v", m, again, err)
		}
	})
}

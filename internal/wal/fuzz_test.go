package wal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the one frame decoder recovery
// and the tailer share. Whatever the input: no panic, no allocation out of
// proportion to the input (a length field is not trusted past the bytes
// that exist), never more bytes consumed than given, and an accepted frame
// is exactly what the writer would have produced for its contents.
func FuzzReadFrame(f *testing.F) {
	valid := encodeFrame(f, 7, [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xAB}, 40)})
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

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		epoch, recs, consumed, st := readFrame(bytes.NewReader(data), int64(len(data)))
		runtime.ReadMemStats(&after)
		// The record index costs at most a slice header per 4 input bytes
		// (doubled by append growth); the slack absorbs the fuzz worker's
		// own background allocation.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if st != frameOK {
			if consumed != 0 || recs != nil {
				t.Fatalf("rejected frame (state %d) consumed %d bytes, returned %d records", st, consumed, len(recs))
			}
			return
		}
		if again := encodeFrame(t, epoch, recs); !bytes.Equal(again, data[:consumed]) {
			t.Fatalf("accepted frame does not re-encode to the bytes consumed:\n in  %x\n out %x", data[:consumed], again)
		}
	})
}

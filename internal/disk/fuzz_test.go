package disk

import (
	"bytes"
	"testing"
)

// FuzzDecodeSuperblock: the decoder never panics, and whatever it accepts
// is exactly what EncodeSuperblock writes for the decoded fields — no byte
// of an accepted header goes unchecked.
func FuzzDecodeSuperblock(f *testing.F) {
	valid := EncodeSuperblock(4096, 4<<20, SegmentGeometry(3))
	f.Add(valid[:])
	torn := valid
	torn[20] ^= 0xFF
	f.Add(torn[:])
	f.Fuzz(func(t *testing.T, head []byte) {
		sb, err := DecodeSuperblock(head)
		if err != nil {
			return
		}
		again := EncodeSuperblock(sb.PageSize, sb.SegBytes, sb.Geo)
		if !bytes.Equal(again[:], head[:SuperblockSize]) {
			t.Fatalf("accepted %x, re-encodes to %x", head[:SuperblockSize], again)
		}
	})
}

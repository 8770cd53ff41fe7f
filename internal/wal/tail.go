package wal

// Log shipping (the replication subsystem's primary side): a Tailer is a
// streaming counterpart of Replay that follows the WAL directory as it
// grows. Where Replay reads one segment once and stops at the first frame
// that does not verify, a Tailer keeps its position — a segment and a file
// offset — and re-reads the growing tail on every poll, delivering each
// commit group exactly once, whole, in epoch order.
//
// The durability watermark resolves the one ambiguity a one-shot replay
// never faces: a frame at the tail that does not verify is either still
// being written (wait for it) or genuinely torn (a crash artifact that
// will never complete). A group whose epoch is at or below the watermark
// was fully fsynced before the watermark advanced, so finding its frame
// unverifiable after a fresh read is file damage, not lag.
//
// Segment handoff follows the checkpointer's rotation contract: rotation
// happens at a quiescent point, so a segment is immutable the moment a
// higher sequence number exists, and a frame left unverifiable at its end
// was never acknowledged — it is discarded, exactly as Replay would.
// Segments pruned by a checkpoint before the tailer consumed them surface
// as ErrTailGone: the subscriber must resynchronise from a checkpoint
// instead of the log.

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
)

// Segment is one WAL segment file.
type Segment struct {
	Seq  int
	Path string
}

// ErrSegmentName is returned (wrapped) by Segments for a wal-*.log file
// whose name the current layout does not produce.
var ErrSegmentName = errors.New("wal: unrecognized WAL file name (incompatible log layout?)")

// Segments lists dir's WAL segments in replay order and returns the
// highest sequence number seen. A wal-*.log file the current layout cannot
// parse is an error, not a skip: silently ignoring an unrecognized log
// file would silently drop its committed transactions.
func Segments(dir string) ([]Segment, int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, 0, err
	}
	segs := make([]Segment, 0, len(matches))
	maxSeq := 0
	for _, m := range matches {
		seq, ok := ParseSegmentPath(m)
		if !ok {
			return nil, 0, fmt.Errorf("%w: %s", ErrSegmentName, m)
		}
		segs = append(segs, Segment{Seq: seq, Path: m})
		maxSeq = max(maxSeq, seq)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, maxSeq, nil
}

// ErrTailGone is returned by a Tailer whose next epochs were pruned by a
// checkpoint before it consumed them. The log can no longer serve the
// subscriber's position; it must resynchronise from a checkpoint.
var ErrTailGone = errors.New("wal: requested epochs precede the retained log (checkpointed away); resync required")

// Tailer streams the durable commit groups of a WAL directory in epoch
// order, following segment growth and rotation. Not safe for concurrent
// use; one Tailer serves one subscriber.
type Tailer struct {
	dir       string
	delivered int64 // newest epoch handed to the caller (or the resume point)
	seen      int64 // newest epoch read from a verifying frame, delivered or skipped
	durable   func() int64

	seg Segment      // current segment; Seq 0 = not positioned yet
	sf  *segmentFile // nil until the segment file is readable
	// stale means sf's view of the file (size, buffered bytes) predates
	// the last unverifiable read and must be refreshed before reading.
	stale     bool
	watermark int64 // durable(), captured just before the last refresh (MinInt64 without a witness)
}

// Tail opens a tailer over the WAL in dir, resuming after epoch `after`:
// the first group delivered is the oldest durable group with a larger
// epoch, even when that position lands mid-file. `after` must be at or
// above the directory's checkpoint epoch (everything below is pruned from
// the log) — otherwise the first Next returns ErrTailGone.
//
// durable reports the newest epoch known fully fsynced (Log.DurableEpoch
// on a live primary); the tailer uses it to distinguish a group still
// being written (poll again) from a torn one. nil is allowed for offline
// use: an unverifiable tail frame is then treated as in-flight until a
// later segment proves it abandoned.
func Tail(dir string, after int64, durable func() int64) *Tailer {
	return &Tailer{dir: dir, delivered: after, durable: durable, stale: true}
}

// Position returns the newest epoch delivered so far (the resume point
// before the first delivery).
func (t *Tailer) Position() int64 { return t.delivered }

// Next returns the next durable commit group, in epoch order: its epoch
// and its records. ok=false means no complete group is available yet —
// the log may grow, so poll again after a short wait. An error is
// terminal: either the needed epochs were pruned (ErrTailGone) or the log
// is damaged.
func (t *Tailer) Next() (epoch int64, recs [][]byte, ok bool, err error) {
	for {
		if t.seg.Seq == 0 {
			positioned, err := t.position()
			if err != nil || !positioned {
				return 0, nil, false, err
			}
		}
		fresh := t.stale
		if t.stale {
			// Capture the watermark before looking at the file, so that
			// everything it implies durable is visible to the reads that
			// follow.
			t.watermark = math.MinInt64
			if t.durable != nil {
				t.watermark = t.durable()
				if t.watermark <= t.delivered {
					// Fully caught up: nothing undelivered is durable
					// anywhere, so an idle stream touches neither the
					// file nor the directory.
					return 0, nil, false, nil
				}
			}
			if err := t.refresh(); err != nil {
				return 0, nil, false, err
			}
		}
		st := frameEnd // segment file not readable yet: nothing there
		if t.sf != nil {
			epoch, recs, st = t.sf.next()
		}
		if st == frameOK {
			t.seen = epoch
			if epoch <= t.delivered {
				continue // resume point inside this segment: skip silently
			}
			t.delivered = epoch
			return epoch, recs, true, nil
		}
		// Nothing verifies at the current offset. The offset did not move,
		// so the next read starts over at the same frame.
		t.stale = true
		if !fresh {
			continue // the view was from an earlier poll: look again first
		}
		// The watermark was captured before the read, so every group it
		// covers in this segment was visible to it: whatever is durable
		// and undelivered lives in a later segment. If one exists this
		// segment is immutable and its unverifiable tail was never
		// acknowledged — discard it with the segment.
		advanced, err := t.advance()
		if err != nil {
			return 0, nil, false, err
		}
		if advanced {
			continue
		}
		// This is the live segment. A frame here whose header names an
		// epoch the watermark proves durable was fsynced whole before we
		// read it; not verifying now is damage. (The header itself is
		// unverified: requiring it to lie past everything already read
		// keeps a half-visible header of the in-flight group, whose true
		// epoch is above the watermark, from passing as an older one.)
		if st == frameBad && epoch > t.seen && epoch <= t.watermark {
			return 0, nil, false, fmt.Errorf("wal: group %d is durable but its frame in %s does not verify (damaged log)", epoch, t.seg.Path)
		}
		return 0, nil, false, nil // wait for the writer
	}
}

// Close releases the tailer's file handle. The tailer must not be used
// afterwards.
func (t *Tailer) Close() {
	if t.sf != nil {
		t.sf.close()
		t.sf = nil
	}
}

// refresh brings the reader's view of the current segment up to date.
func (t *Tailer) refresh() (err error) {
	t.stale = false
	if t.sf == nil {
		// Not created yet, pruned, or its superblock is not durable yet
		// (the writer creates the file before the header): zero frames
		// this poll, and the next refresh rechecks.
		t.sf, err = openSegment(t.seg.Path)
		return err
	}
	ready, err := t.sf.rewind()
	if err != nil || !ready {
		t.Close()
	}
	return err
}

// position opens the oldest live segment, verifying the resume point is
// still covered by the retained log. Returns false when the directory has
// no live segments yet.
func (t *Tailer) position() (bool, error) {
	meta, _, err := ReadCheckpointMeta(t.dir)
	if err != nil {
		return false, err
	}
	if meta.Epoch > t.delivered {
		return false, fmt.Errorf("%w: resume after epoch %d, checkpoint at %d", ErrTailGone, t.delivered, meta.Epoch)
	}
	segs, _, err := Segments(t.dir)
	if err != nil {
		return false, err
	}
	for _, seg := range segs {
		if seg.Seq >= meta.MinWALSeq {
			t.open(seg)
			return true, nil
		}
	}
	return false, nil
}

// advance moves to the next segment if one exists. Detects the
// fell-behind-a-checkpoint case: a gap in the sequence numbers combined
// with a checkpoint past our position means epochs we never delivered
// were pruned.
func (t *Tailer) advance() (bool, error) {
	segs, _, err := Segments(t.dir)
	if err != nil {
		return false, err
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Seq > t.seg.Seq })
	if i == len(segs) {
		return false, nil
	}
	next := segs[i]
	if next.Seq > t.seg.Seq+1 {
		// Read the meta AFTER the listing: the prune that created the gap
		// wrote its checkpoint first, so this read sees an epoch at least
		// as new as that checkpoint's.
		meta, _, err := ReadCheckpointMeta(t.dir)
		if err != nil {
			return false, err
		}
		if meta.Epoch > t.delivered {
			return false, fmt.Errorf("%w: delivered through epoch %d, checkpoint at %d", ErrTailGone, t.delivered, meta.Epoch)
		}
	}
	t.open(next)
	return true, nil
}

func (t *Tailer) open(seg Segment) {
	t.Close()
	t.seg = seg
	t.stale = true
}

package audit

import (
	"fmt"
	"time"
)

// TornReport describes what OpenTrail dropped when it found the trail's
// tail torn or damaged: the first bad record's location, why it was
// rejected, the last LSN that survived, and how much was discarded. The
// operator report after a total node failure prints this ("report what
// was dropped").
type TornReport struct {
	SegmentNum      int    // segment holding the first bad record
	RecordIndex     int    // record index within that segment
	ByteOffset      int    // byte offset of the bad record within the segment image
	Reason          string // why the record was rejected
	LastGoodLSN     uint64 // highest LSN retained (0 if none)
	DroppedBytes    int    // bytes discarded from the torn segment
	DroppedSegments int    // whole later segments discarded
}

func (r *TornReport) String() string {
	if r == nil {
		return "trail intact"
	}
	return fmt.Sprintf("torn at segment %d record %d (byte %d): %s; last good LSN %d, dropped %d bytes + %d segments",
		r.SegmentNum, r.RecordIndex, r.ByteOffset, r.Reason, r.LastGoodLSN, r.DroppedBytes, r.DroppedSegments)
}

// OpenTrail reconstructs a trail from segment media images (as produced
// by DumpSegments, or as left on the audit volume by a
// crash). It never panics on arbitrary bytes. The tail is scanned
// record-by-record; at the first record that fails its length, CRC,
// chain, or LSN check the trail is truncated there and a TornReport says
// what was dropped. A nil report means every byte verified.
//
// Everything that survives open is durable: it was read back off media.
func OpenTrail(name string, forceDelay time.Duration, segs [][]byte) (*Trail, *TornReport) {
	t := NewTrail(name, forceDelay)
	// The trail is not yet published, but reconstruction writes every
	// guarded field; holding the (uncontended) mutex keeps the guardedby
	// invariant machine-checkable instead of exempted.
	t.mu.Lock()
	defer t.mu.Unlock()
	var report *TornReport

	torn := func(segNum, rec, off int, why string, dropped int) {
		if report == nil {
			report = &TornReport{
				SegmentNum: segNum, RecordIndex: rec, ByteOffset: off,
				Reason: why, DroppedBytes: dropped,
			}
		} else {
			report.DroppedSegments++
		}
	}

	for si, raw := range segs {
		num, base, gen, prevChain, err := decodeHeader(raw)
		if err != nil {
			torn(si, 0, 0, err.Error(), len(raw))
			continue // header gone: whole segment dropped
		}
		if report != nil {
			// Everything after the first damage is unreachable: the
			// chain below it cannot be verified.
			report.DroppedSegments++
			continue
		}
		if n := len(t.segments); n > 0 {
			prev := t.segments[n-1]
			switch {
			case num != prev.num+1:
				torn(num, 0, 0, fmt.Sprintf("segment %d where %d expected", num, prev.num+1), len(raw))
				continue
			case base != prev.base+uint64(prev.count()):
				torn(num, 0, 0, fmt.Sprintf("base LSN %d where %d expected", base, prev.base+uint64(prev.count())), len(raw))
				continue
			case prevChain != prev.endChain:
				torn(num, 0, 0, "segment chain link broken", len(raw))
				continue
			}
		}
		body := raw[segHeaderLen:]
		seg := newSegment(num, base, gen, prevChain, segSize{bytes: len(body)})
		off := 0
		var names nameSet
		for off < len(body) {
			img, chain, consumed, err := decodeRecord(body[off:], seg.endChain, base+uint64(seg.count()), &names)
			if err != nil {
				torn(num, seg.count(), segHeaderLen+off, err.Error(), len(body)-off)
				break
			}
			seg.offsets = append(seg.offsets, len(seg.buf))
			seg.buf = append(seg.buf, body[off:off+consumed]...)
			seg.endChain = chain
			seg.indexLast(img.Tx)
			off += consumed
		}
		if seg.count() == 0 && report != nil {
			// Nothing of this segment survived; it is already accounted
			// for in the report's DroppedBytes.
			continue
		}
		seg.sealed = true
		t.segments = append(t.segments, seg)
		t.nextSeg = num + 1
		t.gen = gen
	}

	if n := len(t.segments); n > 0 {
		first, last := t.segments[0], t.segments[n-1]
		t.trimmed = first.base
		t.nextLSN = last.base + uint64(last.count())
	}
	t.forced = t.nextLSN
	t.rebuildCatalogLocked()
	if report != nil {
		if report.LastGoodLSN = t.nextLSN - 1; t.nextLSN == t.trimmed {
			report.LastGoodLSN = 0
		}
	}
	return t, report
}

// VerifyChain walks the entire retained trail — every record of every
// segment, forced or not — re-verifying lengths, CRCs, the SHA-256 hash
// chain, LSN sequence, and the inter-segment chain links. It returns the
// number of records verified and the first failure found.
func (t *Trail) VerifyChain() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	verified := 0
	for i, seg := range t.segments {
		if i > 0 {
			prev := t.segments[i-1]
			if seg.num != prev.num+1 {
				return verified, fmt.Errorf("audit: segment %d where %d expected", seg.num, prev.num+1)
			}
			if seg.base != prev.base+uint64(prev.count()) {
				return verified, fmt.Errorf("audit: segment %d base LSN %d where %d expected", seg.num, seg.base, prev.base+uint64(prev.count()))
			}
			if seg.prevChain != prev.endChain {
				return verified, fmt.Errorf("audit: chain link broken entering segment %d", seg.num)
			}
		}
		chain := seg.prevChain
		off := 0
		for r := 0; r < seg.count(); r++ {
			_, next, consumed, err := decodeRecord(seg.buf[off:], chain, seg.base+uint64(r), nil)
			if err != nil {
				return verified, fmt.Errorf("audit: segment %d record %d (LSN %d): %w", seg.num, r, seg.base+uint64(r), err)
			}
			chain = next
			off += consumed
			verified++
		}
		if chain != seg.endChain {
			return verified, fmt.Errorf("audit: segment %d end chain mismatch", seg.num)
		}
	}
	return verified, nil
}

// Corrupt flips one bit in the stored body of the record at lsn,
// simulating media damage. Returns false when the record is not retained.
// Test and fault-injection hook: after Corrupt, scans skip the record and
// VerifyChain reports it.
func (t *Trail) Corrupt(lsn uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	seg := t.segmentOfLocked(lsn)
	if seg == nil {
		return false
	}
	i := int(lsn - seg.base)
	// Flip a bit inside the record body (past the length prefix and LSN)
	// so framing stays intact and the damage is a content error.
	off := seg.offsets[i] + 4 + 8
	seg.buf[off] ^= 0x01
	return true
}

package audit

// Reader streams trail records in LSN order, decoding one record per Next
// call. ROLLFORWARD reads the trail through a Reader so recovering a
// million-record trail never materializes more than one image at a time
// (§ the recovery-time experiment T13 asserts the memory bound).
//
// The reader holds no lock between Next calls; it re-locates its position
// by LSN each call, so appends, forces and trims may proceed concurrently.
// Records purged after the reader passed them do not disturb it; purging
// records *ahead* of the reader surfaces as ErrTrimmed on the next call.
type Reader struct {
	t     *Trail
	next  uint64  // LSN the next call returns
	names nameSet // shared by the images it decodes
}

// Stream returns a reader over the durable records with LSN >= from
// (from==0 starts at the oldest retained record). It fails with
// ErrTrimmed if from names a purged record.
func (t *Trail) Stream(from uint64) (*Reader, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from == 0 {
		from = t.trimmed
	}
	if from < t.trimmed {
		return nil, ErrTrimmed
	}
	return &Reader{t: t, next: from}, nil
}

// Next returns the next record. ok=false means the reader reached the
// trail's (durable) tail; a later Next may return more if the trail grew.
// A record that fails to decode (damaged media) is skipped, consistent
// with ImagesFor: VerifyChain is the damage detector, scans serve
// recovery with what is readable.
func (r *Reader) Next() (Image, bool, error) {
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if r.next >= t.forced {
			return Image{}, false, nil
		}
		if r.next < t.trimmed {
			return Image{}, false, ErrTrimmed
		}
		seg := t.segmentOfLocked(r.next)
		if seg == nil {
			// LSN sits in a gap (damaged segment dropped on open): skip
			// forward to the next retained segment.
			if n := t.nextBaseAfterLocked(r.next); n > r.next {
				r.next = n
				continue
			}
			return Image{}, false, nil
		}
		img, err := seg.decode(int(r.next-seg.base), &r.names)
		r.next++
		if err != nil {
			continue
		}
		return img, true, nil
	}
}

// Offset returns the LSN the next call to Next would return.
func (r *Reader) Offset() uint64 { return r.next }

// segmentOfLocked finds the segment holding lsn, nil if absent.
func (t *Trail) segmentOfLocked(lsn uint64) *segment {
	// Binary search: segments are in ascending base order.
	lo, hi := 0, len(t.segments)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.segments[mid].base+uint64(t.segments[mid].count()) <= lsn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.segments) && t.segments[lo].base <= lsn {
		return t.segments[lo]
	}
	return nil
}

// nextBaseAfterLocked returns the base LSN of the first segment starting
// after lsn, or 0 when none does.
func (t *Trail) nextBaseAfterLocked(lsn uint64) uint64 {
	for _, seg := range t.segments {
		if seg.base > lsn {
			return seg.base
		}
	}
	return 0
}

package audit

// GenEntry is one generation catalog row: checkpoint generation gen starts
// at segment FirstSeg / LSN FirstLSN and runs until the next entry (or the
// trail tail). ROLLFORWARD uses the catalog to find where to start
// streaming: everything at or after the archive's generation must be
// replayed, everything before it is covered by the restored snapshot.
type GenEntry struct {
	Gen      uint64 `json:"gen"`
	FirstSeg int    `json:"first_seg"`
	FirstLSN uint64 `json:"first_lsn"`
}

// beginGenerationLocked seals the active segment and opens a new
// checkpoint generation; subsequent appends land in segments tagged with
// the new generation. Returns the new generation number.
func (t *Trail) beginGenerationLocked() uint64 {
	if n := len(t.segments); n > 0 {
		t.segments[n-1].sealed = true
	}
	t.gen++
	t.catalog = append(t.catalog, GenEntry{
		Gen:      t.gen,
		FirstSeg: t.nextSeg,
		FirstLSN: t.nextLSN,
	})
	return t.gen
}

// BeginGeneration seals the active segment and opens a new checkpoint
// generation, recording it in the catalog. Archive dumps call this so the
// records covered by the dump and the records that must be replayed on
// top of it land in distinct segment ranges.
func (t *Trail) BeginGeneration() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginGenerationLocked()
}

// Generation returns the current checkpoint generation.
func (t *Trail) Generation() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// GenFirstLSN returns the first LSN of generation gen, or 0 when the
// generation is unknown (never opened, or purged along with its
// segments).
func (t *Trail) GenFirstLSN(gen uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.catalog {
		if e.Gen == gen {
			return e.FirstLSN
		}
	}
	return 0
}

// dropTrimmedCatalogLocked discards catalog entries fully below the trim
// point, keeping at least the entry covering the first surviving record.
func (t *Trail) dropTrimmedCatalogLocked() {
	keep := 0
	for i := 1; i < len(t.catalog); i++ {
		if t.catalog[i].FirstLSN <= t.trimmed {
			keep = i
		}
	}
	if keep > 0 {
		t.catalog = append([]GenEntry(nil), t.catalog[keep:]...)
	}
}

// rebuildCatalogLocked reconstructs the generation catalog from segment
// headers; used by OpenTrail, where the catalog is not stored separately
// on media — each segment carries its generation. Caller holds t.mu.
func (t *Trail) rebuildCatalogLocked() {
	t.catalog = nil
	last := ^uint64(0)
	for _, seg := range t.segments {
		if seg.gen != last {
			t.catalog = append(t.catalog, GenEntry{
				Gen: seg.gen, FirstSeg: seg.num, FirstLSN: seg.base,
			})
			last = seg.gen
		}
	}
	if len(t.catalog) == 0 {
		t.catalog = []GenEntry{{Gen: t.gen, FirstSeg: t.nextSeg, FirstLSN: t.nextLSN}}
	}
}

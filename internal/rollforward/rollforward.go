// Package rollforward implements TMF's recovery from total node failure:
// "TMF's approach to recovery from total node failure is based on
// occasional archived copies of audited data base files, plus an archive
// of all audit trails written since the data base files were archived.
// ... TMF reconstructs any files open at the time of a total node failure
// by using the after-images from the audit trail to reapply the updates of
// committed transactions. ROLLFORWARD negotiates with other nodes of the
// network about transactions which were in 'ending' state at the time of
// the node failure."
//
// Total node failure loses every processor, so checkpointed (but unforced)
// audit records vanish and the discs may carry updates of transactions
// that can no longer be backed out. ROLLFORWARD therefore discards the
// disc contents, restores the archive copy, and REDOes the after-images of
// committed transactions only.
//
// Since PR 7 the replay streams the trail record-at-a-time through
// audit.Reader instead of materializing it: recovering a million-record
// trail holds one image at a time (T13 measures the memory bound), and
// the archive is generation-aware — Take opens a fresh checkpoint
// generation on every trail, so the records the snapshot covers and the
// records that must be replayed on top of it occupy distinct segment
// ranges in the trail's catalog.
//
// Archives are fuzzy: they are taken during normal transaction
// processing, so the volume snapshots can contain in-place updates of
// transactions that were still live at copy time (this simulation, like
// the paper's design, updates the data base before commit and without
// WAL). Two repairs make the restore exact anyway:
//
//   - Take records an Undo set: the before-image of the first write to
//     each key by every transaction unresolved at archive time, read from
//     the trail including its unforced tail. Recover applies it right
//     after the restore, reverting live transactions' dirt even when the
//     crash later destroys their unforced audit records.
//   - During the replay itself, a record whose transaction resolved to
//     abort applies its first-write before-image instead of being
//     skipped, repairing dirt from transactions that aborted after the
//     snapshot was copied.
package rollforward

import (
	"fmt"
	"sort"

	"encompass/internal/audit"
	"encompass/internal/disk"
	"encompass/internal/txid"
)

// UndoRecord is the pre-transaction state of one key: the value to
// restore, or a deletion when the key did not exist before the
// transaction's insert.
type UndoRecord struct {
	Delete bool
	Value  []byte
}

// Archive is an offline copy of a node's audited volumes plus everything
// needed to repair its fuzziness at recovery time.
type Archive struct {
	Node string
	// Snapshots maps volume name -> file -> key -> value.
	Snapshots map[string]map[string]map[string][]byte
	// TrailLSNs maps trail name -> first LSN to replay. Usually the first
	// LSN of the generation the archive opened; lower when a transaction
	// unresolved at archive time has earlier records, so its disposition
	// can be replayed or undone from the trail.
	TrailLSNs map[string]uint64
	// TrailGens maps trail name -> the checkpoint generation this archive
	// opened. Records of earlier generations are covered by the
	// snapshots; the trail's catalog maps the generation to its segment
	// range.
	TrailGens map[string]uint64
	// Undo maps volume -> file -> key -> pre-transaction state for every
	// key written by a transaction unresolved at archive time.
	Undo map[string]map[string]map[string]UndoRecord
}

// Take produces an archive of the given volumes and trails. It can run
// during normal transaction processing; the fuzziness is repaired at
// recovery from the recorded Undo set and by replaying the trail from the
// recorded positions. resolved reports whether the node knows a
// transaction's outcome — its Monitor Audit Trail's record, or an abort
// the node presumes — and so which are unresolved at copy time.
func Take(node string, vols map[string]*disk.Volume, trails map[string]*audit.Trail,
	resolved func(txid.ID) bool) *Archive {

	a := &Archive{
		Node:      node,
		Snapshots: make(map[string]map[string]map[string][]byte),
		TrailLSNs: make(map[string]uint64),
		TrailGens: make(map[string]uint64),
		Undo:      make(map[string]map[string]map[string]UndoRecord),
	}
	for name, tr := range trails {
		gen := tr.BeginGeneration()
		a.TrailGens[name] = gen
		replay := tr.GenFirstLSN(gen)
		// Transactions unresolved at copy time: remember their
		// pre-transaction images (the snapshot may contain their dirt,
		// and a later crash may destroy their unforced audit records),
		// and widen the replay window to cover their records.
		for _, id := range tr.Transactions() {
			if resolved(id) {
				continue
			}
			imgs := tr.ImagesForUnforced(id)
			if len(imgs) == 0 {
				continue
			}
			if imgs[0].LSN < replay {
				replay = imgs[0].LSN
			}
			for i := range imgs {
				img := &imgs[i]
				files := a.Undo[img.Volume]
				if files == nil {
					files = make(map[string]map[string]UndoRecord)
					a.Undo[img.Volume] = files
				}
				keys := files[img.File]
				if keys == nil {
					keys = make(map[string]UndoRecord)
					files[img.File] = keys
				}
				if _, seen := keys[img.Key]; !seen { // first write wins
					keys[img.Key] = UndoRecord{Delete: img.Before == nil, Value: img.Before}
				}
			}
		}
		a.TrailLSNs[name] = replay
	}
	for name, v := range vols {
		a.Snapshots[name] = v.Snapshot()
	}
	return a
}

// Resolver decides whether a transaction seen in the replay window
// committed. The caller supplies the node's Monitor Audit Trail lookups
// and — for transactions homed elsewhere or in "ending" state at failure —
// the negotiation with remote TMPs.
type Resolver func(tx txid.ID) (committed bool, err error)

// Stats reports what a recovery did.
type Stats struct {
	VolumesRestored int
	ImagesScanned   int
	ImagesReplayed  int
	ImagesUndone    int // aborted transactions' before-images applied during replay
	UndoApplied     int // archive Undo records applied after restore
	TxCommitted     int
	TxDiscarded     int
	Negotiated      int
}

// Recover rebuilds the volumes: restore the archive snapshots, revert the
// snapshot dirt recorded in the archive's Undo set, then stream each
// trail from the archive's replay position — reapplying after-images of
// committed transactions and first-write before-images of aborted ones,
// in LSN order, one record in memory at a time. resolve is consulted once
// per distinct transaction not already recorded in the local Monitor
// Audit Trail.
func Recover(a *Archive, vols map[string]*disk.Volume, trails map[string]*audit.Trail,
	mat *audit.MonitorTrail, resolve Resolver) (Stats, error) {

	var st Stats
	for name, v := range vols {
		snap, ok := a.Snapshots[name]
		if !ok {
			return st, fmt.Errorf("rollforward: no snapshot for volume %s", name)
		}
		v.Wipe()
		v.Restore(snap)
		st.VolumesRestored++
	}

	// Revert dirt from transactions live at archive time.
	for volName, files := range a.Undo {
		v, ok := vols[volName]
		if !ok {
			continue
		}
		for file, keys := range files {
			for key, u := range keys {
				if err := applyUndo(v, file, key, u); err != nil {
					return st, fmt.Errorf("rollforward: undo %s/%s/%s: %w", volName, file, key, err)
				}
				st.UndoApplied++
			}
		}
	}

	// Resolve each distinct transaction once.
	outcome := make(map[txid.ID]bool)
	decide := func(tx txid.ID) (bool, error) {
		if c, ok := outcome[tx]; ok {
			return c, nil
		}
		if o, ok := mat.OutcomeOf(tx); ok {
			c := o == audit.OutcomeCommitted
			outcome[tx] = c
			if c {
				st.TxCommitted++
			} else {
				st.TxDiscarded++
			}
			return c, nil
		}
		st.Negotiated++
		c, err := resolve(tx)
		if err != nil {
			return false, fmt.Errorf("rollforward: negotiating %s: %w", tx, err)
		}
		outcome[tx] = c
		if c {
			st.TxCommitted++
		} else {
			st.TxDiscarded++
		}
		return c, nil
	}

	names := make([]string, 0, len(trails))
	for name := range trails {
		names = append(names, name)
	}
	sort.Strings(names)

	// undoneKeys remembers which (tx, key) pairs already had their
	// before-image applied: only a transaction's *first* write to a key
	// holds the pre-transaction value.
	type txKey struct {
		tx               txid.ID
		vol, file, field string
	}
	undoneKeys := make(map[txKey]bool)

	for _, name := range names {
		tr := trails[name]
		from := a.TrailLSNs[name]
		if from == 0 {
			from = 1
		}
		r, err := tr.Stream(from)
		if err != nil {
			return st, fmt.Errorf("rollforward: trail %s: %w", name, err)
		}
		for {
			img, ok, err := r.Next()
			if err != nil {
				return st, fmt.Errorf("rollforward: trail %s: %w", name, err)
			}
			if !ok {
				break
			}
			st.ImagesScanned++
			committed, err := decide(img.Tx)
			if err != nil {
				return st, err
			}
			v, haveVol := vols[img.Volume]
			if !haveVol {
				continue
			}
			if committed {
				switch img.Kind {
				case audit.ImageInsert, audit.ImageUpdate:
					if err := v.Write(img.File, img.Key, img.After); err != nil {
						return st, err
					}
				case audit.ImageDelete:
					if err := v.Delete(img.File, img.Key); err != nil {
						return st, err
					}
				}
				st.ImagesReplayed++
				continue
			}
			// Aborted: the snapshot may still hold this write if the
			// transaction was live when the archive copied the volume.
			// Its first-write before-image is the pre-transaction state.
			k := txKey{tx: img.Tx, vol: img.Volume, file: img.File, field: img.Key}
			if undoneKeys[k] {
				continue
			}
			undoneKeys[k] = true
			u := UndoRecord{Delete: img.Before == nil, Value: img.Before}
			if err := applyUndo(v, img.File, img.Key, u); err != nil {
				return st, fmt.Errorf("rollforward: undoing %s on %s/%s/%s: %w", img.Tx, img.Volume, img.File, img.Key, err)
			}
			st.ImagesUndone++
		}
	}
	return st, nil
}

// applyUndo writes one pre-transaction state back: restore the value, or
// remove the key the transaction inserted (a no-op when already absent).
func applyUndo(v *disk.Volume, file, key string, u UndoRecord) error {
	if !u.Delete {
		return v.Write(file, key, u.Value)
	}
	if ok, err := v.Exists(file, key); err != nil || !ok {
		return err
	}
	return v.Delete(file, key)
}

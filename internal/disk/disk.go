// Package disk simulates Tandem disc subsystems: logical volumes backed by
// mirrored drive pairs, reached through two dual-ported I/O controllers.
// "Disc drives may be connected to two I/O controllers, and discs
// themselves may be duplicated, or 'mirrored', to provide data base access
// despite disc failures."
//
// Geometry is simulated at record granularity: a drive holds a full copy of
// every record of every file on the volume. Failing one drive degrades the
// mirror; reviving it copies from the survivor; failing both (or both
// controllers) makes the volume inaccessible — the multiple-module failure
// whose answer is ROLLFORWARD.
//
// Written values are immutable: Write keeps the slice it is given, on
// both drives, so the writer must not modify it afterwards. The
// DISCPROCESS hands the volume the same copy its file structures and
// audit images share, and ROLLFORWARD the images it decoded from the
// trail. Read, Snapshot and a drive revive copy.
package disk

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors reported by the disc subsystem.
var (
	ErrVolumeDown    = errors.New("disk: volume inaccessible (no drive or no controller)")
	ErrNoSuchDrive   = errors.New("disk: no such drive")
	ErrDriveUp       = errors.New("disk: drive already up")
	ErrNoSuchRecord  = errors.New("disk: no such record")
	ErrControllerDup = errors.New("disk: controller already failed/up")
)

type recordKey struct{ file, key string }

// drive is one physical disc: a full copy of the volume's records.
type drive struct {
	up   bool
	data map[recordKey][]byte
}

func newDrive() *drive { return &drive{up: true, data: make(map[recordKey][]byte)} }

// Controller is a dual-ported I/O controller. Both of a volume's
// controllers must fail to sever access.
type Controller struct {
	mu sync.Mutex
	up bool
}

// Up reports controller health.
func (c *Controller) Up() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.up
}

// Fail takes the controller down.
func (c *Controller) Fail() {
	c.mu.Lock()
	c.up = false
	c.mu.Unlock()
}

// Revive restores the controller.
func (c *Controller) Revive() {
	c.mu.Lock()
	c.up = true
	c.mu.Unlock()
}

// Stats counts volume activity.
type Stats struct {
	Reads          uint64
	Writes         uint64
	DegradedWrites uint64 // writes that reached only one drive
	Revives        uint64
}

// Volume is a logical disc volume: a mirrored drive pair behind two
// controllers.
type Volume struct {
	name string

	mu     sync.Mutex
	fenced bool
	drives [2]*drive
	ctrls  [2]*Controller

	reads          atomic.Uint64
	writes         atomic.Uint64
	degradedWrites atomic.Uint64
	revives        atomic.Uint64
}

// NewVolume creates a healthy mirrored volume.
func NewVolume(name string) *Volume {
	return &Volume{
		name:   name,
		drives: [2]*drive{newDrive(), newDrive()},
		ctrls:  [2]*Controller{{up: true}, {up: true}},
	}
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// Controller returns one of the volume's two controllers.
func (v *Volume) Controller(i int) *Controller { return v.ctrls[i] }

// accessible reports whether any path (controller) and any drive is up.
// Caller holds v.mu.
func (v *Volume) accessibleLocked() bool {
	if v.fenced {
		return false
	}
	ctrlUp := v.ctrls[0].Up() || v.ctrls[1].Up()
	driveUp := v.drives[0].up || v.drives[1].up
	return ctrlUp && driveUp
}

// SetFenced blocks (true) or re-enables (false) all normal I/O to the
// volume. Total-node-failure simulation fences volumes so that no straggler
// from a dying processor can touch the disc while ROLLFORWARD repairs it;
// Wipe, Restore and Snapshot (recovery utilities) are unaffected.
func (v *Volume) SetFenced(fenced bool) {
	v.mu.Lock()
	v.fenced = fenced
	v.mu.Unlock()
}

// Accessible reports whether the volume can be reached at all.
func (v *Volume) Accessible() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.accessibleLocked()
}

// Degraded reports whether exactly one drive is up.
func (v *Volume) Degraded() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.drives[0].up != v.drives[1].up
}

// Write stores a record on every up drive. The volume keeps val.
func (v *Volume) Write(file, key string, val []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.accessibleLocked() {
		return fmt.Errorf("%w: %s", ErrVolumeDown, v.name)
	}
	k := recordKey{file, key}
	n := 0
	for _, d := range v.drives {
		if d.up {
			d.data[k] = val
			n++
		}
	}
	v.writes.Add(1)
	if n == 1 {
		v.degradedWrites.Add(1)
	}
	return nil
}

// Delete removes a record from every up drive. Deleting a missing record
// is not an error (idempotent for backout replay).
func (v *Volume) Delete(file, key string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.accessibleLocked() {
		return fmt.Errorf("%w: %s", ErrVolumeDown, v.name)
	}
	k := recordKey{file, key}
	for _, d := range v.drives {
		if d.up {
			delete(d.data, k)
		}
	}
	v.writes.Add(1)
	return nil
}

// Read fetches a record from the first up drive.
func (v *Volume) Read(file, key string) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.accessibleLocked() {
		return nil, fmt.Errorf("%w: %s", ErrVolumeDown, v.name)
	}
	v.reads.Add(1)
	k := recordKey{file, key}
	for _, d := range v.drives {
		if d.up {
			val, ok := d.data[k]
			if !ok {
				return nil, fmt.Errorf("%w: %s/%s on %s", ErrNoSuchRecord, file, key, v.name)
			}
			out := make([]byte, len(val))
			copy(out, val)
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrVolumeDown, v.name)
}

// Exists reports whether a record is present.
func (v *Volume) Exists(file, key string) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.accessibleLocked() {
		return false, fmt.Errorf("%w: %s", ErrVolumeDown, v.name)
	}
	k := recordKey{file, key}
	for _, d := range v.drives {
		if d.up {
			_, ok := d.data[k]
			return ok, nil
		}
	}
	return false, fmt.Errorf("%w: %s", ErrVolumeDown, v.name)
}

// FailDrive takes one mirror down.
func (v *Volume) FailDrive(i int) error {
	if i < 0 || i > 1 {
		return ErrNoSuchDrive
	}
	v.mu.Lock()
	v.drives[i].up = false
	v.mu.Unlock()
	return nil
}

// ReviveDrive brings a failed mirror back, copying ("revive") the full
// volume contents from the surviving drive.
func (v *Volume) ReviveDrive(i int) error {
	if i < 0 || i > 1 {
		return ErrNoSuchDrive
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	d := v.drives[i]
	if d.up {
		return ErrDriveUp
	}
	src := v.drives[1-i]
	fresh := make(map[recordKey][]byte, len(src.data))
	if src.up {
		for k, val := range src.data {
			cp := make([]byte, len(val))
			copy(cp, val)
			fresh[k] = cp
		}
	}
	d.data = fresh
	d.up = true
	v.revives.Add(1)
	return nil
}

// DriveUp reports whether drive i is up.
func (v *Volume) DriveUp(i int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return i >= 0 && i <= 1 && v.drives[i].up
}

// Wipe destroys all data on both drives and brings them up empty. Models
// total media loss followed by replacement — the precondition for a
// ROLLFORWARD recovery.
func (v *Volume) Wipe() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range v.drives {
		v.drives[i] = newDrive()
	}
}

// Snapshot captures a consistent copy of the volume's records, as an
// archive ("occasional archived copies of audited data base files").
func (v *Volume) Snapshot() map[string]map[string][]byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]map[string][]byte)
	for _, d := range v.drives {
		if !d.up {
			continue
		}
		for k, val := range d.data {
			f := out[k.file]
			if f == nil {
				f = make(map[string][]byte)
				out[k.file] = f
			}
			cp := make([]byte, len(val))
			copy(cp, val)
			f[k.key] = cp
		}
		break
	}
	return out
}

// Restore replaces the volume contents with the snapshot on all up drives.
func (v *Volume) Restore(snap map[string]map[string][]byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, d := range v.drives {
		if !d.up {
			continue
		}
		d.data = make(map[recordKey][]byte)
		for file, recs := range snap {
			for key, val := range recs {
				cp := make([]byte, len(val))
				copy(cp, val)
				d.data[recordKey{file, key}] = cp
			}
		}
	}
}

// Files lists the file names present on the volume, sorted.
func (v *Volume) Files() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	seen := make(map[string]bool)
	for _, d := range v.drives {
		if !d.up {
			continue
		}
		for k := range d.data {
			seen[k.file] = true
		}
		break
	}
	var out []string
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Keys lists the record keys of a file, sorted.
func (v *Volume) Keys(file string) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []string
	for _, d := range v.drives {
		if !d.up {
			continue
		}
		for k := range d.data {
			if k.file == file {
				out = append(out, k.key)
			}
		}
		break
	}
	sort.Strings(out)
	return out
}

// Stats returns activity counters.
func (v *Volume) Stats() Stats {
	return Stats{
		Reads:          v.reads.Load(),
		Writes:         v.writes.Load(),
		DegradedWrites: v.degradedWrites.Load(),
		Revives:        v.revives.Load(),
	}
}

// MirrorsConsistent verifies both drives hold identical data; used by tests
// after failure/revive cycles.
func (v *Volume) MirrorsConsistent() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	a, b := v.drives[0], v.drives[1]
	if !a.up || !b.up {
		return false
	}
	if len(a.data) != len(b.data) {
		return false
	}
	for k, av := range a.data {
		bv, ok := b.data[k]
		if !ok || string(av) != string(bv) {
			return false
		}
	}
	return true
}

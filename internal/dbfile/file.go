// File organizations of the ENCOMPASS data base manager: "three types of
// structured file organizations: key-sequenced, relative, and
// entry-sequenced" with "multi-key access to records with automatic
// maintenance of the indices during file update".
//
// All three organizations share a B-tree primary index whose keys are
// strings; relative and entry-sequenced files use zero-padded decimal
// record numbers so lexicographic order equals record order. Alternate-key
// indices map an extracted field value (plus the primary key, to permit
// duplicates) back to the primary key.
//
// Stored values are immutable. A write (Insert, Append, Update,
// ForceWrite) keeps the slice it is given, and ReadShared and Cache.Get
// return the stored slice itself, so neither the writer nor a reader may
// modify it afterwards; a new value replaces the old slice, never its
// bytes. The DISCPROCESS copies a caller's value once, where it enters,
// and every structure shares that copy. Read and the scans (ReadRange,
// ReadRangeDesc, ReadByAltKey) return copies.
package dbfile

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
)

// Organization selects a file structure.
type Organization int

// The three ENCOMPASS file organizations.
const (
	KeySequenced Organization = iota
	Relative
	EntrySequenced
)

// String names the file organization.
func (o Organization) String() string {
	switch o {
	case KeySequenced:
		return "key-sequenced"
	case Relative:
		return "relative"
	case EntrySequenced:
		return "entry-sequenced"
	default:
		return fmt.Sprintf("organization(%d)", int(o))
	}
}

// Errors reported by file operations.
var (
	ErrDuplicateKey  = errors.New("dbfile: duplicate primary key")
	ErrNotFound      = errors.New("dbfile: record not found")
	ErrWrongOrg      = errors.New("dbfile: operation invalid for this file organization")
	ErrBadAltKey     = errors.New("dbfile: alternate key field out of record bounds")
	ErrNoSuchAltKey  = errors.New("dbfile: no such alternate key")
	ErrUpdateEntrySq = errors.New("dbfile: entry-sequenced records cannot be deleted")
)

// recNumWidth is the zero-padded width of relative/entry-sequenced record
// numbers (keeps lexicographic order = numeric order).
const recNumWidth = 12

// FormatRecNum renders a record number as a primary key: zero-padded to
// recNumWidth digits, and unpadded when wider. The digits are built on the
// stack, so the key string is the one allocation.
func FormatRecNum(n uint64) string {
	var digits [20]byte // as many as MaxUint64 has
	d := strconv.AppendUint(digits[:0], n, 10)
	pad := recNumWidth - len(d)
	if pad <= 0 {
		return string(d)
	}
	var key [recNumWidth]byte
	for i := range pad {
		key[i] = '0'
	}
	copy(key[pad:], d)
	return string(key[:])
}

// ParseRecNum parses a record-number key.
func ParseRecNum(key string) (uint64, error) {
	return strconv.ParseUint(key, 10, 64)
}

// AltKeyDef describes an alternate key as a fixed field of the record
// value, the way ENCOMPASS's data definition language carves records into
// fields.
type AltKeyDef struct {
	Name   string
	Offset int
	Len    int
}

func (d AltKeyDef) extract(val []byte) (string, error) {
	if d.Offset < 0 || d.Len <= 0 || d.Offset+d.Len > len(val) {
		return "", fmt.Errorf("%w: %s [%d:%d] of %d-byte record", ErrBadAltKey, d.Name, d.Offset, d.Offset+d.Len, len(val))
	}
	return string(val[d.Offset : d.Offset+d.Len]), nil
}

// File is one structured file. It is safe for concurrent use.
type File struct {
	name string
	org  Organization

	mu      sync.RWMutex
	primary *Tree
	altDefs []AltKeyDef
	altIdx  map[string]*Tree // alt name -> (altValue \x00 primaryKey) -> primaryKey
	nextRec uint64           // entry-sequenced allocator
}

// NewFile creates an empty file with the given organization and alternate
// keys.
func NewFile(name string, org Organization, altKeys ...AltKeyDef) *File {
	f := &File{
		name:    name,
		org:     org,
		primary: NewTree(),
		altDefs: altKeys,
		altIdx:  make(map[string]*Tree),
	}
	for _, d := range altKeys {
		f.altIdx[d.Name] = NewTree()
	}
	return f
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Org returns the file organization.
func (f *File) Org() Organization { return f.org }

// Len returns the number of records.
func (f *File) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.primary.Len()
}

// AltKeys returns the alternate key definitions.
func (f *File) AltKeys() []AltKeyDef {
	return append([]AltKeyDef(nil), f.altDefs...)
}

func altEntry(altVal, primary string) string { return altVal + "\x00" + primary }

func (f *File) indexInsert(primary string, val []byte) error {
	for _, d := range f.altDefs {
		av, err := d.extract(val)
		if err != nil {
			return err
		}
		f.altIdx[d.Name].Put(altEntry(av, primary), []byte(primary))
	}
	return nil
}

func (f *File) indexRemove(primary string, val []byte) {
	for _, d := range f.altDefs {
		if av, err := d.extract(val); err == nil {
			f.altIdx[d.Name].Delete(altEntry(av, primary))
		}
	}
}

// Insert adds a record under a caller-supplied key (key-sequenced and
// relative organizations). For entry-sequenced files use Append.
func (f *File) Insert(key string, val []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.org == EntrySequenced {
		return fmt.Errorf("%w: Insert on %s file %s", ErrWrongOrg, f.org, f.name)
	}
	if f.primary.Has(key) {
		return fmt.Errorf("%w: %s in %s", ErrDuplicateKey, key, f.name)
	}
	if err := f.indexInsert(key, val); err != nil {
		return err
	}
	f.primary.Put(key, val)
	return nil
}

// PeekAppendKey returns the key the next Append to an entry-sequenced file
// would allocate, without mutating the file. Callers that must route the
// actual write through another channel (the DISCPROCESS checkpoint
// discipline uses ForceWrite) use this to name the record first.
func (f *File) PeekAppendKey() (string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.org != EntrySequenced {
		return "", fmt.Errorf("%w: PeekAppendKey on %s file %s", ErrWrongOrg, f.org, f.name)
	}
	return FormatRecNum(f.nextRec), nil
}

// Append adds a record to an entry-sequenced file and returns its key.
func (f *File) Append(val []byte) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.org != EntrySequenced {
		return "", fmt.Errorf("%w: Append on %s file %s", ErrWrongOrg, f.org, f.name)
	}
	key := FormatRecNum(f.nextRec)
	f.nextRec++
	if err := f.indexInsert(key, val); err != nil {
		return "", err
	}
	f.primary.Put(key, val)
	return key, nil
}

// Read fetches a copy of a record by primary key.
func (f *File) Read(key string) ([]byte, error) {
	v, err := f.ReadShared(key)
	return cloneBytes(v), err
}

// ReadShared fetches a record by primary key without copying it: the
// value is the stored slice, which the caller must not modify.
func (f *File) ReadShared(key string) ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, ok := f.primary.Get(key)
	if !ok {
		return nil, fmt.Errorf("%w: %s in %s", ErrNotFound, key, f.name)
	}
	return v, nil
}

// Exists reports whether a primary key is present.
func (f *File) Exists(key string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.primary.Has(key)
}

// Update replaces an existing record, maintaining alternate indices.
func (f *File) Update(key string, val []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	old, ok := f.primary.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s in %s", ErrNotFound, key, f.name)
	}
	// Validate alternate key extraction before touching any index so a bad
	// record leaves the file unchanged.
	for _, d := range f.altDefs {
		if _, err := d.extract(val); err != nil {
			return err
		}
	}
	f.indexRemove(key, old)
	if err := f.indexInsert(key, val); err != nil {
		return err
	}
	f.primary.Put(key, val)
	return nil
}

// Delete removes a record. Entry-sequenced files are append-only.
func (f *File) Delete(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.org == EntrySequenced {
		return fmt.Errorf("%w: %s", ErrUpdateEntrySq, f.name)
	}
	old, ok := f.primary.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s in %s", ErrNotFound, key, f.name)
	}
	f.indexRemove(key, old)
	f.primary.Delete(key)
	return nil
}

// ForceWrite installs a record regardless of prior existence; used by
// transaction backout and ROLLFORWARD replay, which must be idempotent.
func (f *File) ForceWrite(key string, val []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.primary.Get(key); ok {
		f.indexRemove(key, old)
	}
	_ = f.indexInsert(key, val)
	f.primary.Put(key, val)
	if f.org == EntrySequenced {
		if n, err := ParseRecNum(key); err == nil && n >= f.nextRec {
			f.nextRec = n + 1
		}
	}
}

// ForceDelete removes a record regardless of organization or existence;
// used by backout/replay.
func (f *File) ForceDelete(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.primary.Get(key); ok {
		f.indexRemove(key, old)
		f.primary.Delete(key)
	}
}

// Rec is a key/value pair returned by scans.
type Rec struct {
	Key string
	Val []byte
}

// ReadRange returns up to limit records with keys in [lo, hi) in key
// order. hi == "" means unbounded; limit <= 0 means no limit.
func (f *File) ReadRange(lo, hi string, limit int) []Rec {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []Rec
	f.primary.AscendRange(lo, hi, func(k string, v []byte) bool {
		out = append(out, Rec{Key: k, Val: cloneBytes(v)})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// ReadRangeDesc returns up to limit records with keys in [lo, hi) in
// REVERSE key order (reading a file backwards from an approximate
// position, as key-sequenced access methods allow).
func (f *File) ReadRangeDesc(lo, hi string, limit int) []Rec {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []Rec
	f.primary.DescendRange(lo, hi, func(k string, v []byte) bool {
		out = append(out, Rec{Key: k, Val: cloneBytes(v)})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// ReadByAltKey returns the records whose alternate key field equals value,
// in primary-key order.
func (f *File) ReadByAltKey(altName, value string) ([]Rec, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	idx, ok := f.altIdx[altName]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoSuchAltKey, altName, f.name)
	}
	var out []Rec
	lo := value + "\x00"
	hi := value + "\x01"
	idx.AscendRange(lo, hi, func(_ string, primary []byte) bool {
		if v, ok := f.primary.Get(string(primary)); ok {
			out = append(out, Rec{Key: string(primary), Val: cloneBytes(v)})
		}
		return true
	})
	return out, nil
}

// Keys returns all primary keys in order.
func (f *File) Keys() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.primary.Keys()
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Package fsys is the File System layer applications call to reach the
// data base: it resolves file names to the DISCPROCESSes holding their
// partitions ("partitioning of files by key value range across multiple
// disc volumes (possibly on multiple nodes)"), attaches the caller's
// current transid to every request ("the File System automatically appends
// the application process' current transid to the request message which is
// sent to the DISCPROCESS"), sends a transaction's requests to another
// node through TMF, whose first one there carries the TMP
// remote-transaction-begin, and retries path errors so process-pair
// takeover stays invisible to applications.
package fsys

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"encompass/internal/dbfile"
	"encompass/internal/discproc"
	"encompass/internal/msg"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

// Errors reported by the File System layer.
var (
	ErrUnknownFile  = errors.New("fsys: file not in catalog")
	ErrNoPartition  = errors.New("fsys: no partition covers key")
	ErrBadPartition = errors.New("fsys: invalid partition table")
)

// Partition maps a key range (from LowKey inclusive to the next
// partition's LowKey exclusive) to the volume holding it.
type Partition struct {
	LowKey string
	Node   string
	Volume string
	Disc   string // DISCPROCESS service name on that node
}

// FileInfo is a catalog entry: a logical file and its partitions.
// AllowNodes, when non-empty, restricts access to requests originating
// from the listed network nodes — "security controls by ... network node".
type FileInfo struct {
	Name       string
	Org        dbfile.Organization
	AltKeys    []dbfile.AltKeyDef
	AllowNodes []string
	Partitions []Partition // sorted by LowKey; first LowKey must be ""
}

func (fi *FileInfo) validate() error {
	if len(fi.Partitions) == 0 {
		return fmt.Errorf("%w: %s has no partitions", ErrBadPartition, fi.Name)
	}
	if fi.Partitions[0].LowKey != "" {
		return fmt.Errorf("%w: %s first partition must start at the empty key", ErrBadPartition, fi.Name)
	}
	for i := 1; i < len(fi.Partitions); i++ {
		if fi.Partitions[i-1].LowKey >= fi.Partitions[i].LowKey {
			return fmt.Errorf("%w: %s partitions out of order", ErrBadPartition, fi.Name)
		}
	}
	return nil
}

// locate returns the partition covering key.
func (fi *FileInfo) locate(key string) Partition {
	i := sort.Search(len(fi.Partitions), func(i int) bool { return fi.Partitions[i].LowKey > key })
	return fi.Partitions[i-1]
}

// FS is the per-node File System client.
type FS struct {
	sys  *msg.System
	mon  *tmf.Monitor
	node string

	mu    sync.Mutex
	files map[string]*FileInfo

	// CallCPU is the CPU requests are issued from (the calling process's
	// processor); pick any up CPU for simulation drivers.
	CallCPU int
	// Timeout bounds each disc call.
	Timeout time.Duration
	// LockTimeout is the default lock wait (deadlock detection interval).
	LockTimeout time.Duration
}

// New creates the node's File System client.
func New(sys *msg.System, mon *tmf.Monitor) *FS {
	return &FS{
		sys:         sys,
		mon:         mon,
		node:        sys.Node().Name(),
		files:       make(map[string]*FileInfo),
		CallCPU:     sys.Node().NumCPUs() - 1,
		Timeout:     10 * time.Second,
		LockTimeout: 2 * time.Second,
	}
}

// Define registers a catalog entry (it does not create the physical
// files; see Create).
func (fs *FS) Define(fi FileInfo) error {
	if err := fi.validate(); err != nil {
		return err
	}
	cp := fi
	cp.Partitions = append([]Partition(nil), fi.Partitions...)
	fs.mu.Lock()
	fs.files[fi.Name] = &cp
	fs.mu.Unlock()
	return nil
}

// Create defines the file and creates its physical partitions on their
// DISCPROCESSes.
func (fs *FS) Create(fi FileInfo) error {
	if err := fs.Define(fi); err != nil {
		return err
	}
	for _, p := range fi.Partitions {
		_, err := fs.callPart(txid.ID{}, p, discproc.KindCreate, discproc.CreateReq{
			File: fi.Name, Org: fi.Org, AltKeys: fi.AltKeys, AllowNodes: fi.AllowNodes,
		})
		if err != nil && !errors.Is(err, discproc.ErrFileExists) {
			return err
		}
	}
	return nil
}

func (fs *FS) info(file string) (*FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fi, ok := fs.files[file]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrUnknownFile, file, fs.node)
	}
	return fi, nil
}

// callPart sends one request to a partition's DISCPROCESS and retries it
// around process-pair takeover. A request of a transaction to another node
// goes through the monitor, whose first one there carries the remote
// transaction begin.
func (fs *FS) callPart(tx txid.ID, p Partition, kind string, payload any) (msg.Message, error) {
	addr := msg.Addr{Name: p.Disc}
	if p.Node != fs.node {
		addr.Node = p.Node
	}
	for attempt := 1; ; attempt++ {
		var (
			r   msg.Message
			err error
		)
		if addr.Node != "" && !tx.IsZero() {
			r, err = fs.mon.Call(fs.CallCPU, tx, addr, kind, payload, fs.Timeout)
		} else {
			r, err = fs.sys.CallTimeout(fs.CallCPU, addr, kind, payload, fs.Timeout)
		}
		// Retry only a request that reached no process (a takeover
		// window), never an answer or a call that may have run.
		if err == nil || attempt == 3 || !msg.Undelivered(err) {
			return r, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// frames recycles record-request frames (discproc.RecReq), which the
// DISCPROCESS answers in place. A frame goes back only once its reply has
// arrived, success or application error: until then the DISCPROCESS may
// still read it or answer into it. A call that failed to start never
// delivered its frame and retries with it; a call that timed out leaves
// its frame to the garbage collector, because a late server may still
// read it.
var frames = sync.Pool{New: func() any { return new(discproc.RecReq) }}

// rec sends req to p's DISCPROCESS in a pooled frame and returns what the
// reply carries back in it: a read's value and an append's key.
func (fs *FS) rec(p Partition, kind string, req discproc.RecReq) (val []byte, key string, err error) {
	f := frames.Get().(*discproc.RecReq)
	*f = req
	r, err := fs.callPart(req.Tx, p, kind, f)
	if a, ok := r.Payload.(*discproc.RecReq); ok {
		val, key = a.Val, a.Key
	}
	if !errors.Is(err, msg.ErrCallTimeout) {
		*f = discproc.RecReq{}
		frames.Put(f)
	}
	return val, key, err
}

// Read fetches one record without locking (browse access). On the
// record's own node the value is the DISCPROCESS's stored slice, shared
// with its file structures and record cache, so the caller must not
// modify it. It is not copied because a copy per read would cost every
// inquiry an allocation (about 1 in inquiry_mix's 12 per operation, past
// that workload's 2 % bound); a caller that edits a record copies it.
func (fs *FS) Read(file, key string) ([]byte, error) {
	fi, err := fs.info(file)
	if err != nil {
		return nil, err
	}
	val, _, err := fs.rec(fi.locate(key), discproc.KindRead, discproc.RecReq{File: file, Key: key})
	return val, err
}

// ReadLock fetches one record and acquires its record lock for tx: "locks
// on existing records are obtained at read time by explicit application
// program request." The value is shared, as Read's is: the caller must
// not modify it.
func (fs *FS) ReadLock(tx txid.ID, file, key string) ([]byte, error) {
	fi, err := fs.info(file)
	if err != nil {
		return nil, err
	}
	val, _, err := fs.rec(fi.locate(key), discproc.KindRead, discproc.RecReq{
		Tx: tx, File: file, Key: key, WithLock: true, LockTimeout: fs.LockTimeout,
	})
	return val, err
}

// Insert adds a record under tx; the new record is automatically locked.
func (fs *FS) Insert(tx txid.ID, file, key string, val []byte) error {
	fi, err := fs.info(file)
	if err != nil {
		return err
	}
	_, _, err = fs.rec(fi.locate(key), discproc.KindInsert, discproc.RecReq{
		Tx: tx, File: file, Key: key, Val: val, LockTimeout: fs.LockTimeout,
	})
	return err
}

// Update replaces a record previously locked by tx.
func (fs *FS) Update(tx txid.ID, file, key string, val []byte) error {
	fi, err := fs.info(file)
	if err != nil {
		return err
	}
	_, _, err = fs.rec(fi.locate(key), discproc.KindUpdate, discproc.RecReq{Tx: tx, File: file, Key: key, Val: val})
	return err
}

// Delete removes a record previously locked by tx.
func (fs *FS) Delete(tx txid.ID, file, key string) error {
	fi, err := fs.info(file)
	if err != nil {
		return err
	}
	_, _, err = fs.rec(fi.locate(key), discproc.KindDelete, discproc.RecReq{Tx: tx, File: file, Key: key})
	return err
}

// Append adds a record to an entry-sequenced file (last partition).
func (fs *FS) Append(tx txid.ID, file string, val []byte) (string, error) {
	fi, err := fs.info(file)
	if err != nil {
		return "", err
	}
	_, key, err := fs.rec(fi.Partitions[len(fi.Partitions)-1], discproc.KindAppend, discproc.RecReq{
		Tx: tx, File: file, Val: val, LockTimeout: fs.LockTimeout,
	})
	return key, err
}

// LockFile takes a file-granularity lock on every partition of the file.
func (fs *FS) LockFile(tx txid.ID, file string) error {
	fi, err := fs.info(file)
	if err != nil {
		return err
	}
	for _, p := range fi.Partitions {
		if _, _, err := fs.rec(p, discproc.KindLockFile, discproc.RecReq{
			Tx: tx, File: file, LockTimeout: fs.LockTimeout,
		}); err != nil {
			return err
		}
	}
	return nil
}

// ReadRange scans [lo, hi) across partitions in key order, up to limit
// records (0 = unlimited).
func (fs *FS) ReadRange(file, lo, hi string, limit int) ([]dbfile.Rec, error) {
	fi, err := fs.info(file)
	if err != nil {
		return nil, err
	}
	var out []dbfile.Rec
	for _, p := range fi.Partitions {
		if limit > 0 && len(out) >= limit {
			break
		}
		want := limit
		if want > 0 {
			want -= len(out)
		}
		r, err := fs.callPart(txid.ID{}, p, discproc.KindReadRange, discproc.ReadRangeReq{
			File: file, Lo: lo, Hi: hi, Limit: want,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r.Payload.(discproc.ReadRangeResp).Recs...)
	}
	return out, nil
}

// ReadRangeDesc scans [lo, hi) in REVERSE key order across partitions,
// up to limit records (0 = unlimited).
func (fs *FS) ReadRangeDesc(file, lo, hi string, limit int) ([]dbfile.Rec, error) {
	fi, err := fs.info(file)
	if err != nil {
		return nil, err
	}
	var out []dbfile.Rec
	for i := len(fi.Partitions) - 1; i >= 0; i-- {
		if limit > 0 && len(out) >= limit {
			break
		}
		want := limit
		if want > 0 {
			want -= len(out)
		}
		r, err := fs.callPart(txid.ID{}, fi.Partitions[i], discproc.KindReadRange, discproc.ReadRangeReq{
			File: file, Lo: lo, Hi: hi, Limit: want, Desc: true,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r.Payload.(discproc.ReadRangeResp).Recs...)
	}
	return out, nil
}

// ReadByAltKey queries every partition's alternate index and merges
// results in primary-key order.
func (fs *FS) ReadByAltKey(file, altKey, value string) ([]dbfile.Rec, error) {
	fi, err := fs.info(file)
	if err != nil {
		return nil, err
	}
	var out []dbfile.Rec
	for _, p := range fi.Partitions {
		r, err := fs.callPart(txid.ID{}, p, discproc.KindReadAlt, discproc.ReadAltReq{
			File: file, AltKey: altKey, Value: value,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r.Payload.(discproc.ReadRangeResp).Recs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Files lists the catalog entries, sorted by name.
func (fs *FS) Files() []FileInfo {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]FileInfo, 0, len(fs.files))
	for _, fi := range fs.files {
		out = append(out, *fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

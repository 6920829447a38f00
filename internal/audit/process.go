package audit

import (
	"encoding/binary"
	"fmt"
	"time"

	"encompass/internal/msg"
	"encompass/internal/pair"
	"encompass/internal/txid"
)

// Message kinds served by the AUDITPROCESS.
const (
	KindAppend = "audit.append"
	KindForce  = "audit.force"
	KindScan   = "audit.scan"
)

// AppendReq carries a batch of images from a DISCPROCESS. It is sent by
// pointer (the AUDITPROCESS is on the sender's node, so the request is
// never encoded), and it is immutable once sent: the AUDITPROCESS only
// reads it, and a DISCPROCESS's backup may hold the same request for a
// takeover re-append.
//
// WriteBehind asks the AUDITPROCESS to start forcing the trail now,
// without making the append wait for it: a participant sets it for a
// transaction homed on another node, whose phase-one request is at least
// one network hop away, so the force overlaps that hop and phase one finds
// the records already durable.
type AppendReq struct {
	Images      []Image
	WriteBehind bool
}

// ForceReq write-forces a transaction's images (phase one of commit).
type ForceReq struct {
	UpTo uint64 // 0 means force everything appended
}

// ScanReq asks for a transaction's images (backout path).
type ScanReq struct {
	Tx txid.ID
}

// ScanResp returns the transaction's images in LSN order, and how many of
// its records could not be read: each is an update a backout cannot undo.
type ScanResp struct {
	Images  []Image
	Skipped int
}

// The AUDITPROCESS serves only its own node (NewClient addresses it by
// name), so its requests are never encoded and have no wire tag.

// AppendImages appends a list of images for a message frame (UndoReq
// carries one): the count, then per image its LSN and its record body
// (AppendBody) behind a four-byte length.
func AppendImages(b []byte, imgs []Image) []byte {
	b = binary.AppendUvarint(b, uint64(len(imgs)))
	for i := range imgs {
		b = binary.AppendUvarint(b, imgs[i].LSN)
		b = putU32(b, 0)
		start := len(b)
		b = AppendBody(b, &imgs[i])
		binary.LittleEndian.PutUint32(b[start-4:], uint32(len(b)-start))
	}
	return b
}

// ReadImages reads a list AppendImages wrote; an empty list decodes as
// nil. The images share no memory with the frame.
func ReadImages(r *msg.Reader) []Image {
	n := r.Len()
	if n == 0 {
		return nil
	}
	imgs := make([]Image, 0, n)
	var names nameSet
	for range n {
		lsn := r.Uvarint()
		size := r.Take(4)
		if r.Err() != nil {
			return nil
		}
		img, err := decodeBody(r.Take(int(binary.LittleEndian.Uint32(size))), &names)
		if err != nil {
			r.Fail(err)
			return nil
		}
		img.LSN = lsn
		imgs = append(imgs, img)
	}
	return imgs
}

// processApp is the AUDITPROCESS pair application. Its durable state is
// the Trail itself (which lives on a mirrored audit volume), so checkpoints
// carry nothing and takeover is trivial: both members share the trail,
// exactly as both halves of a disc process-pair share the physical disc.
type processApp struct {
	trail  *Trail
	forces *pair.Workers[uint64]
	// behind kicks the member's write-behind loop; nil until the first
	// write-behind append starts it. Only the member goroutine touches
	// the field.
	behind chan struct{}
}

func (a *processApp) Handle(ctx pair.Ctx) {
	m := ctx.Req()
	switch m.Kind {
	case KindAppend:
		req := m.Payload.(*AppendReq)
		a.trail.AppendBatch(req.Images)
		if req.WriteBehind {
			a.kick(ctx.Proc())
		}
		ctx.Reply(nil)
	case KindForce:
		// A force blocks for the simulated disc latency. Served inline it
		// would stall this single-goroutine process — serializing
		// concurrent committers' forces and blocking appends behind each
		// one — so hand it to the trail's group-commit machinery on a
		// parked force worker and reply once durable. Every force in
		// service has a worker of its own, so the trail coalesces
		// concurrent requests into one physical write; Reply is safe from
		// another goroutine (it only resolves the caller's waiter).
		a.forces.Go(ctx, m.Payload.(ForceReq).UpTo)
	case KindScan:
		req := m.Payload.(ScanReq)
		imgs, skipped := a.trail.scanUnforced(req.Tx)
		ctx.Reply(ScanResp{Images: imgs, Skipped: skipped})
	default:
		ctx.ReplyErr(fmt.Errorf("audit: unknown request kind %q", m.Kind))
	}
}

// force makes the trail durable up to upTo (everything when 0); the force
// worker then answers the request.
func (a *processApp) force(_ pair.Ctx, upTo uint64) error {
	if upTo == 0 {
		a.trail.ForceAll()
	} else {
		a.trail.Force(upTo)
	}
	return nil
}

// kick asks the write-behind loop for a force of everything appended,
// starting the loop on the first kick. It never blocks: a kick that finds
// one already pending is dropped, because the force it asks for will
// cover this append too.
func (a *processApp) kick(p *msg.Process) {
	if a.behind == nil {
		a.behind = make(chan struct{}, 1)
		go a.writeBehind(p.Context().Done(), a.behind)
	}
	select {
	case a.behind <- struct{}{}:
	default:
	}
}

// writeBehind forces the trail once per kick. Kicks that arrive while a
// force is under way coalesce into one more force, so the physical forces
// it starts are bounded by elapsed time over the force delay, not by the
// number of appends.
func (a *processApp) writeBehind(done <-chan struct{}, kicks <-chan struct{}) {
	for {
		select {
		case <-kicks:
			a.trail.forceBehind()
		case <-done:
			return
		}
	}
}

func (a *processApp) ApplyCheckpoint(any) {}
func (a *processApp) Snapshot() any       { return nil }
func (a *processApp) Restore(any)         {}
func (a *processApp) TakeOver()           {}

// Process is a running AUDITPROCESS: the pair plus its trail.
type Process struct {
	Pair  *pair.Pair
	Trail *Trail
}

// StartProcess launches an AUDITPROCESS pair serving the given trail under
// the given name.
func StartProcess(sys *msg.System, name string, primaryCPU, backupCPU int, trail *Trail) (*Process, error) {
	p, err := pair.Start(sys, name, primaryCPU, backupCPU, func() pair.App {
		a := &processApp{trail: trail}
		a.forces = pair.NewWorkers(a.force)
		return a
	})
	if err != nil {
		return nil, err
	}
	return &Process{Pair: p, Trail: trail}, nil
}

// Client is a DISCPROCESS-side handle for talking to an AUDITPROCESS.
type Client struct {
	sys  *msg.System
	addr msg.Addr
}

// NewClient creates a handle addressing the named AUDITPROCESS on the
// local node.
func NewClient(sys *msg.System, name string) *Client {
	return &Client{sys: sys, addr: msg.Addr{Name: name}}
}

const callTimeout = 5 * time.Second

func (c *Client) call(fromCPU int, kind string, payload any) (msg.Message, error) {
	return c.sys.CallTimeout(fromCPU, c.addr, kind, payload, callTimeout)
}

// Append ships a batch of images. The reply carries nothing: a caller
// that must make them durable forces everything appended (Force with 0),
// as a flush does.
func (c *Client) Append(fromCPU int, req *AppendReq) error {
	_, err := c.call(fromCPU, KindAppend, req)
	return err
}

// Force write-forces the trail up to the given LSN (0 = everything).
func (c *Client) Force(fromCPU int, upTo uint64) error {
	_, err := c.call(fromCPU, KindForce, ForceReq{UpTo: upTo})
	return err
}

// Scan fetches a transaction's images and the number of its records that
// could not be read.
func (c *Client) Scan(fromCPU int, tx txid.ID) (ScanResp, error) {
	r, err := c.call(fromCPU, KindScan, ScanReq{Tx: tx})
	if err != nil {
		return ScanResp{}, err
	}
	return r.Payload.(ScanResp), nil
}

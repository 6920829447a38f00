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
type AppendReq struct {
	Images []Image
}

// ForceReq write-forces a transaction's images (phase one of commit).
type ForceReq struct {
	UpTo uint64 // 0 means force everything appended
}

// ScanReq asks for a transaction's images (backout path).
type ScanReq struct {
	Tx txid.ID
}

// ScanResp returns the transaction's images in LSN order.
type ScanResp struct {
	Images []Image
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
	for range n {
		lsn := r.Uvarint()
		size := r.Take(4)
		if r.Err() != nil {
			return nil
		}
		img, err := DecodeBody(r.Take(int(binary.LittleEndian.Uint32(size))))
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
	trail *Trail
}

func (a *processApp) Handle(ctx pair.Ctx) {
	m := ctx.Req()
	switch m.Kind {
	case KindAppend:
		a.trail.AppendBatch(m.Payload.(*AppendReq).Images)
		ctx.Reply(nil)
	case KindForce:
		// A force blocks for the simulated disc latency. Served inline it
		// would stall this single-goroutine process — serializing
		// concurrent committers' forces and blocking appends behind each
		// one — so hand it to the trail's group-commit machinery on its
		// own goroutine and reply once durable. The trail coalesces
		// concurrent requests into one physical write; Reply is safe from
		// another goroutine (it only resolves the caller's waiter).
		go a.force(ctx, m.Payload.(ForceReq).UpTo)
	case KindScan:
		req := m.Payload.(ScanReq)
		ctx.Reply(ScanResp{Images: a.trail.ImagesForUnforced(req.Tx)})
	default:
		ctx.ReplyErr(fmt.Errorf("audit: unknown request kind %q", m.Kind))
	}
}

// force makes the trail durable up to upTo (everything when 0) and then
// answers ctx, its own copy of the request's context: a closure over
// Handle's parameter would move it to the heap on every append too.
func (a *processApp) force(ctx pair.Ctx, upTo uint64) {
	if upTo == 0 {
		a.trail.ForceAll()
	} else {
		a.trail.Force(upTo)
	}
	ctx.Reply(nil)
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
		return &processApp{trail: trail}
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

// Scan fetches a transaction's images.
func (c *Client) Scan(fromCPU int, tx txid.ID) ([]Image, error) {
	r, err := c.call(fromCPU, KindScan, ScanReq{Tx: tx})
	if err != nil {
		return nil, err
	}
	return r.Payload.(ScanResp).Images, nil
}

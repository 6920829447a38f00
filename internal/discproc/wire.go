package discproc

import (
	"encoding/binary"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

// The DISCPROCESS's requests and replies cross nodes when a File System
// calls a volume on another node. Each is registered with its flat wire
// codec under a fixed tag in discproc's block (1-15).
func init() {
	msg.RegisterPayload(1, appendRecReq, readRecReq)
	msg.RegisterPayload(2, appendCreateReq, readCreateReq)
	msg.RegisterPayload(3, appendReadRangeReq, readReadRangeReq)
	msg.RegisterPayload(4, appendReadRangeResp, readReadRangeResp)
	msg.RegisterPayload(5, appendReadAltReq, readReadAltReq)
	msg.RegisterPayload(6,
		func(b []byte, r *TxReq) []byte { return txid.AppendID(b, r.Tx) },
		func(r *msg.Reader) *TxReq { return &TxReq{Tx: txid.ReadID(r)} })
	msg.RegisterPayload(7,
		func(b []byte, r *UndoReq) []byte { return audit.AppendImages(txid.AppendID(b, r.Tx), r.Images) },
		func(r *msg.Reader) *UndoReq { return &UndoReq{Tx: txid.ReadID(r), Images: audit.ReadImages(r)} })
}

// A record frame is flat: transid, file, key, value, lock flag and lock
// timeout, with the strings and the value length-prefixed.
func appendRecReq(b []byte, r *RecReq) []byte {
	b = txid.AppendID(b, r.Tx)
	b = msg.AppendBytes(b, r.File)
	b = msg.AppendBytes(b, r.Key)
	b = msg.AppendBytes(b, r.Val)
	b = msg.AppendBool(b, r.WithLock)
	return binary.AppendVarint(b, int64(r.LockTimeout))
}

func readRecReq(r *msg.Reader) *RecReq {
	return &RecReq{
		Tx:          txid.ReadID(r),
		File:        r.Str(),
		Key:         r.Str(),
		Val:         r.Bytes(),
		WithLock:    r.Bool(),
		LockTimeout: time.Duration(r.Varint()),
	}
}

func appendCreateReq(b []byte, r CreateReq) []byte {
	b = msg.AppendBytes(b, r.File)
	b = binary.AppendVarint(b, int64(r.Org))
	b = binary.AppendUvarint(b, uint64(len(r.AltKeys)))
	for _, k := range r.AltKeys {
		b = msg.AppendBytes(b, k.Name)
		b = binary.AppendVarint(b, int64(k.Offset))
		b = binary.AppendVarint(b, int64(k.Len))
	}
	b = binary.AppendUvarint(b, uint64(len(r.AllowNodes)))
	for _, n := range r.AllowNodes {
		b = msg.AppendBytes(b, n)
	}
	return b
}

func readCreateReq(r *msg.Reader) CreateReq {
	c := CreateReq{File: r.Str(), Org: dbfile.Organization(r.Varint())}
	if n := r.Len(); n > 0 {
		c.AltKeys = make([]dbfile.AltKeyDef, n)
		for i := range c.AltKeys {
			c.AltKeys[i] = dbfile.AltKeyDef{Name: r.Str(), Offset: int(r.Varint()), Len: int(r.Varint())}
		}
	}
	if n := r.Len(); n > 0 {
		c.AllowNodes = make([]string, n)
		for i := range c.AllowNodes {
			c.AllowNodes[i] = r.Str()
		}
	}
	return c
}

func appendReadRangeReq(b []byte, r ReadRangeReq) []byte {
	b = msg.AppendBytes(b, r.File)
	b = msg.AppendBytes(b, r.Lo)
	b = msg.AppendBytes(b, r.Hi)
	b = binary.AppendVarint(b, int64(r.Limit))
	return msg.AppendBool(b, r.Desc)
}

func readReadRangeReq(r *msg.Reader) ReadRangeReq {
	return ReadRangeReq{File: r.Str(), Lo: r.Str(), Hi: r.Str(), Limit: int(r.Varint()), Desc: r.Bool()}
}

func appendReadRangeResp(b []byte, r ReadRangeResp) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Recs)))
	for _, rec := range r.Recs {
		b = msg.AppendBytes(b, rec.Key)
		b = msg.AppendBytes(b, rec.Val)
	}
	return b
}

func readReadRangeResp(r *msg.Reader) ReadRangeResp {
	n := r.Len()
	if n == 0 {
		return ReadRangeResp{}
	}
	recs := make([]dbfile.Rec, n)
	for i := range recs {
		recs[i] = dbfile.Rec{Key: r.Str(), Val: r.Bytes()}
	}
	return ReadRangeResp{Recs: recs}
}

func appendReadAltReq(b []byte, r ReadAltReq) []byte {
	b = msg.AppendBytes(b, r.File)
	b = msg.AppendBytes(b, r.AltKey)
	return msg.AppendBytes(b, r.Value)
}

func readReadAltReq(r *msg.Reader) ReadAltReq {
	return ReadAltReq{File: r.Str(), AltKey: r.Str(), Value: r.Str()}
}

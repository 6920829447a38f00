package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"encompass/internal/txid"
)

// The trail's on-media format ("an audit trail is a numbered sequence of
// disc files"): fixed-capacity segments of length-prefixed, checksummed,
// hash-chained records.
//
// Segment header (64 bytes, little-endian):
//
//	u32  magic      "ENCA"
//	u32  version    1
//	u64  num        segment number
//	u64  base       LSN of the segment's first record
//	u64  gen        checkpoint generation the segment belongs to
//	[32] prevChain  hash-chain value entering the segment (links segments)
//
// Record (length-prefixed, little-endian):
//
//	u32  recLen     byte count of everything after this field
//	u64  lsn
//	body            encoded Image (transid, volume, file, key, kind, images)
//	[32] chain      SHA-256(prevChain || lsn || body)
//	u32  crc        CRC-32C over lsn..chain
//
// The CRC detects media corruption record-locally; the chain detects
// reordering, splicing and targeted tampering, and links every record to
// the whole history before it. A record whose length field reaches past
// the end of the segment is a torn write: the tail was lost mid-transfer.

const (
	segMagic      = 0x41434E45 // "ENCA" little-endian
	segVersion    = 1
	segHeaderLen  = 4 + 4 + 8 + 8 + 8 + chainLen
	chainLen      = 32
	recOverhead   = 8 + chainLen + 4 // lsn + chain + crc (excludes the length prefix)
	maxRecordLen  = 1 << 26          // sanity bound on a single record's length field
	nilMarker     = 0xFFFFFFFF       // length value encoding a nil byte slice
	kindFieldBits = 0xFF
)

// castagnoli is the CRC-32C table ("checksummed" means Castagnoli
// throughout: the polynomial with hardware support on modern CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultSegmentRecords is how many records fill one trail segment before
// TMF rolls to the next numbered file.
const DefaultSegmentRecords = 4096

// chainHash advances the hash chain over one record's lsn+body payload.
func chainHash(prev [chainLen]byte, payload []byte) [chainLen]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(payload)
	var out [chainLen]byte
	h.Sum(out[:0])
	return out
}

// putU32/putU64 append little-endian integers.
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// putBlob appends a nil-distinguishing length-prefixed byte slice.
func putBlob(b []byte, v []byte) []byte {
	if v == nil {
		return putU32(b, nilMarker)
	}
	b = putU32(b, uint32(len(v)))
	return append(b, v...)
}

// putStr appends a string in putBlob's non-nil form, without converting
// it to a byte slice first.
func putStr(b []byte, s string) []byte {
	b = putU32(b, uint32(len(s)))
	return append(b, s...)
}

// blobReader walks an encoded record body with bounds checking.
type blobReader struct {
	b   []byte
	off int
	err error
}

func (r *blobReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("short u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *blobReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("short u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// span reads a length-prefixed field and returns its bytes, aliasing the
// body, with ok false for the nil form.
func (r *blobReader) span() (b []byte, ok bool) {
	n := r.u32()
	if r.err != nil || n == nilMarker {
		return nil, false
	}
	if int(n) < 0 || r.off+int(n) > len(r.b) {
		r.fail("blob overruns body")
		return nil, false
	}
	b = r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, true
}

// str reads a string, which putStr never writes in the nil form: only one
// encoding of a body decodes, so a decoded body re-encodes to its bytes.
// The string is copied once, straight from the body, unless names (when
// not nil) already holds it.
func (r *blobReader) str(names *nameSet) string {
	b, ok := r.span()
	if !ok {
		r.fail("nil string")
		return ""
	}
	if names != nil {
		return names.get(b)
	}
	return string(b)
}

// nameSet is the few strings a run of decodes shares: a transaction's
// images repeat one home and a few volume and file names, so a decode
// finds them here instead of copying each again. The oldest entry makes
// room for a new one.
type nameSet struct {
	s    [8]string
	next int
}

// get returns b as a string, from the set when it holds it.
func (p *nameSet) get(b []byte) string {
	for _, s := range p.s {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	p.s[p.next] = s
	p.next = (p.next + 1) % len(p.s)
	return s
}

// blob reads a byte slice, keeping its nil form, as a copy that shares
// nothing with the body.
func (r *blobReader) blob() []byte {
	b, ok := r.span()
	if !ok {
		return nil
	}
	return bytes.Clone(b)
}

func (r *blobReader) fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("audit: record body: %s", why)
	}
}

// AppendBody appends the Image fields (everything but the LSN, which is
// part of the record framing) to b. Trail records and the messages that
// carry images share this one image encoding.
func AppendBody(b []byte, img *Image) []byte {
	b = putStr(b, img.Tx.Home)
	b = putU32(b, uint32(img.Tx.CPU))
	b = putU64(b, img.Tx.Seq)
	b = append(b, byte(img.Kind)&kindFieldBits)
	b = putStr(b, img.Volume)
	b = putStr(b, img.File)
	b = putStr(b, img.Key)
	b = putBlob(b, img.Before)
	return putBlob(b, img.After)
}

// DecodeBody parses an encoded Image body. The returned Image's byte
// slices are copies: callers may retain them without aliasing the
// segment's buffer.
func DecodeBody(b []byte) (Image, error) { return decodeBody(b, nil) }

// decodeBody is DecodeBody for one of a run of images: its home, volume
// and file are taken from names (when not nil), which the run shares.
func decodeBody(b []byte, names *nameSet) (Image, error) {
	r := blobReader{b: b}
	var img Image
	img.Tx.Home = r.str(names)
	img.Tx.CPU = int(r.u32())
	img.Tx.Seq = r.u64()
	if r.err == nil {
		if r.off >= len(r.b) {
			r.fail("short kind")
		} else {
			img.Kind = ImageKind(r.b[r.off])
			r.off++
			if img.Kind > ImageDelete {
				r.fail("unknown image kind")
			}
		}
	}
	img.Volume = r.str(names)
	img.File = r.str(names)
	img.Key = r.str(nil)
	img.Before = r.blob()
	img.After = r.blob()
	if r.err != nil {
		return Image{}, r.err
	}
	if r.off != len(r.b) {
		return Image{}, fmt.Errorf("audit: record body: %d trailing bytes", len(r.b)-r.off)
	}
	return img, nil
}

// openFrame starts one framed record, as laid out above, at the tail of
// dst: a length placeholder and the LSN. The caller appends the body
// straight after them and seals the record with closeFrame, which needs
// the returned start offset. The pair is the one writer of the record
// format: audit trail segments and decision logs both frame through it,
// in place in their own buffers.
func openFrame(dst []byte, lsn uint64) ([]byte, int) {
	start := len(dst)
	dst = putU32(dst, 0)
	return putU64(dst, lsn), start
}

// closeFrame seals the record opened at start: it appends the chain and
// the CRC, patches the length, and returns the extended buffer plus the
// advanced chain value.
func closeFrame(dst []byte, start int, prev [chainLen]byte) ([]byte, [chainLen]byte) {
	chain := chainHash(prev, dst[start+4:])
	dst = append(dst, chain[:]...)
	dst = putU32(dst, crc32.Checksum(dst[start+4:], castagnoli))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, chain
}

// readFrame fully verifies one framed record at the head of b: length
// sanity, CRC, chain continuity from prev, and (when wantLSN != 0) the
// expected LSN. It returns the LSN, the body (aliasing b), the advanced
// chain, and the total framed size consumed.
func readFrame(b []byte, prev [chainLen]byte, wantLSN uint64) (lsn uint64, body []byte, chain [chainLen]byte, n int, err error) {
	fail := func(format string, a ...any) (uint64, []byte, [chainLen]byte, int, error) {
		return 0, nil, [chainLen]byte{}, 0, fmt.Errorf(format, a...)
	}
	if len(b) < 4 {
		return fail("audit: torn record: %d bytes where a length prefix belongs", len(b))
	}
	recLen := int(binary.LittleEndian.Uint32(b))
	if recLen < recOverhead || recLen > maxRecordLen {
		return fail("audit: bad record length %d", recLen)
	}
	if 4+recLen > len(b) {
		return fail("audit: torn record: length %d overruns remaining %d bytes", recLen, len(b)-4)
	}
	frame := b[4 : 4+recLen]
	wantCRC := binary.LittleEndian.Uint32(frame[recLen-4:])
	if crc32.Checksum(frame[:recLen-4], castagnoli) != wantCRC {
		return fail("audit: record CRC mismatch")
	}
	payload := frame[:recLen-chainLen-4]
	copy(chain[:], frame[recLen-chainLen-4:recLen-4])
	if chainHash(prev, payload) != chain {
		return fail("audit: hash chain broken")
	}
	lsn = binary.LittleEndian.Uint64(payload)
	if wantLSN != 0 && lsn != wantLSN {
		return fail("audit: LSN %d where %d expected", lsn, wantLSN)
	}
	return lsn, payload[8:], chain, 4 + recLen, nil
}

// encodeRecord appends the framed record for img to dst and returns the
// extended buffer plus the advanced chain value. img.LSN must be set.
func encodeRecord(dst []byte, img *Image, prev [chainLen]byte) ([]byte, [chainLen]byte) {
	return appendRecord(dst, img.LSN, img, prev)
}

// appendRecord frames img under lsn at the tail of dst, in place. It
// reads img and never writes it: the trail appends images a DISCPROCESS
// still holds, immutable once sent, so the LSN travels beside the image.
func appendRecord(dst []byte, lsn uint64, img *Image, prev [chainLen]byte) ([]byte, [chainLen]byte) {
	dst, start := openFrame(dst, lsn)
	return closeFrame(AppendBody(dst, img), start, prev)
}

// decodeRecord parses and fully verifies (readFrame) one record at the
// head of b. It returns the image, the advanced chain, and the total
// framed size consumed; names is decodeBody's.
func decodeRecord(b []byte, prev [chainLen]byte, wantLSN uint64, names *nameSet) (Image, [chainLen]byte, int, error) {
	lsn, body, chain, n, err := readFrame(b, prev, wantLSN)
	var img Image
	if err == nil {
		img, err = decodeBody(body, names)
	}
	if err != nil {
		return Image{}, [chainLen]byte{}, 0, err
	}
	img.LSN = lsn
	return img, chain, n, nil
}

// segment is one numbered trail file: an append-only byte buffer of
// framed records plus the indexes needed to read it without decoding
// everything.
//
// The per-transaction index is a linked list threaded through the
// records: byTx holds each transaction's first and last record index, and
// next, parallel to offsets, links every record to its transaction's
// following one. Indexing a record therefore writes two slots and, for a
// transaction's first record in the segment, one map entry; nothing is
// allocated per record beyond the growth of the slices and the map, which
// a segment sized by its trail (segSize) does not pay.
type segment struct {
	num       int
	base      uint64 // LSN of first record
	gen       uint64 // checkpoint generation
	prevChain [chainLen]byte
	endChain  [chainLen]byte
	buf       []byte
	offsets   []int              // byte offset of each record in buf
	next      []int32            // index of the same transaction's next record, or -1
	byTx      map[txid.ID]txSpan // first and last record of each transaction
	sealed    bool
}

// txSpan bounds one transaction's list of records within a segment.
type txSpan struct{ first, last int32 }

// segSize is what a new segment reserves up front: buffer bytes, record
// index entries and transaction map entries. The zero value reserves
// nothing, and the segment grows by append; a record past the reserve
// still fits, by the same growth.
type segSize struct{ bytes, records, txs int }

func newSegment(num int, base, gen uint64, prevChain [chainLen]byte, size segSize) *segment {
	return &segment{
		num: num, base: base, gen: gen,
		prevChain: prevChain, endChain: prevChain,
		buf:     make([]byte, 0, size.bytes),
		offsets: make([]int, 0, size.records),
		next:    make([]int32, 0, size.records),
		byTx:    make(map[txid.ID]txSpan, size.txs),
	}
}

func (s *segment) count() int { return len(s.offsets) }

// append frames img under lsn at the segment tail.
func (s *segment) append(lsn uint64, img *Image) {
	s.offsets = append(s.offsets, len(s.buf))
	s.buf, s.endChain = appendRecord(s.buf, lsn, img, s.endChain)
	s.indexLast(img.Tx)
}

// indexLast links the segment's last record, already in offsets, into
// tx's list.
func (s *segment) indexLast(tx txid.ID) {
	i := int32(len(s.offsets) - 1)
	s.next = append(s.next, -1)
	if sp, ok := s.byTx[tx]; ok {
		s.next[sp.last] = i
		s.byTx[tx] = txSpan{sp.first, i}
	} else {
		s.byTx[tx] = txSpan{i, i}
	}
}

// chainBefore returns the chain value entering record i.
func (s *segment) chainBefore(i int) [chainLen]byte {
	if i == 0 {
		return s.prevChain
	}
	return s.chainOf(i - 1)
}

// chainOf reads record i's stored chain value straight from the buffer.
func (s *segment) chainOf(i int) [chainLen]byte {
	end := len(s.buf)
	if i+1 < len(s.offsets) {
		end = s.offsets[i+1]
	}
	var c [chainLen]byte
	copy(c[:], s.buf[end-chainLen-4:end-4])
	return c
}

// decode parses record i, verifying CRC and chain continuity; names is
// decodeBody's.
func (s *segment) decode(i int, names *nameSet) (Image, error) {
	img, _, _, err := decodeRecord(s.buf[s.offsets[i]:], s.chainBefore(i), s.base+uint64(i), names)
	if err != nil {
		return Image{}, fmt.Errorf("audit: segment %d record %d (LSN %d): %w", s.num, i, s.base+uint64(i), err)
	}
	return img, nil
}

// truncate drops records [keep:], restoring the chain tail. Used by
// CrashLoseUnforced: the unforced tail lived only in AUDITPROCESS memory.
func (s *segment) truncate(keep int) {
	if keep >= len(s.offsets) {
		return
	}
	cut := len(s.buf)
	if keep < len(s.offsets) {
		cut = s.offsets[keep]
	}
	s.buf = s.buf[:cut]
	s.offsets = s.offsets[:keep]
	s.next = s.next[:keep]
	if keep == 0 {
		s.endChain = s.prevChain
	} else {
		s.endChain = s.chainOf(keep - 1)
	}
	for tx, sp := range s.byTx {
		if int(sp.first) >= keep {
			delete(s.byTx, tx)
			continue
		}
		if int(sp.last) < keep {
			continue
		}
		last := sp.first
		for n := s.next[last]; n >= 0 && int(n) < keep; n = s.next[n] {
			last = n
		}
		s.next[last] = -1
		s.byTx[tx] = txSpan{sp.first, last}
	}
}

// encodeHeader renders the segment's 64-byte media header.
func (s *segment) encodeHeader() []byte {
	b := make([]byte, 0, segHeaderLen)
	b = putU32(b, segMagic)
	b = putU32(b, segVersion)
	b = putU64(b, uint64(s.num))
	b = putU64(b, s.base)
	b = putU64(b, s.gen)
	b = append(b, s.prevChain[:]...)
	return b
}

// decodeHeader parses a segment media header.
func decodeHeader(b []byte) (num int, base, gen uint64, prevChain [chainLen]byte, err error) {
	if len(b) < segHeaderLen {
		err = fmt.Errorf("audit: segment header: %d bytes where %d belong", len(b), segHeaderLen)
		return
	}
	if binary.LittleEndian.Uint32(b) != segMagic {
		err = fmt.Errorf("audit: segment header: bad magic")
		return
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != segVersion {
		err = fmt.Errorf("audit: segment header: unsupported version %d", v)
		return
	}
	num = int(binary.LittleEndian.Uint64(b[8:]))
	base = binary.LittleEndian.Uint64(b[16:])
	gen = binary.LittleEndian.Uint64(b[24:])
	copy(prevChain[:], b[32:32+chainLen])
	if num < 0 || base == 0 {
		err = fmt.Errorf("audit: segment header: impossible num %d / base %d", num, base)
	}
	return
}

package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// The wire frame. Every message that crosses EXPAND is encoded on its own,
// with no state shared between frames: sessions lose, duplicate and
// reorder frames, so a frame must decode without any frame before it.
// The layout is flat, varint integers and length-prefixed strings:
//
//	From.Node From.CPU From.Seq FromSys To.Node To.Name Kind Corr IsReply Err
//	payload tag, payload
//
// The payload tag names the payload's type in the tag table RegisterPayload
// fills; tag 0 is a nil payload. The payload's own codec writes the rest of
// the frame, so the frame ends where the payload does and a trailing byte
// is an error. A tag is part of the wire format: once assigned it is never
// reused for another type, even after its type is deleted. Each package
// owns a block of tags:
//
//	1-15     discproc
//	24-31    tmf
//	32-47    paxoscommit
//	48-55    appserver
//	200-255  tests

var (
	errShortFrame = errors.New("msg: truncated or malformed frame")
	errTrailing   = errors.New("msg: trailing bytes after payload")
)

// codec is one row of the tag table: a payload type and its flat
// encoding.
type codec struct {
	tag uint64
	typ reflect.Type
	enc func(b []byte, v any) []byte
	dec func(r *Reader) any
}

// The tag table, filled by RegisterPayload from init functions and only
// read afterwards.
var (
	codecByTag  = map[uint64]*codec{}
	codecByType = map[reflect.Type]*codec{}
)

// RegisterPayload makes payload type T encodable across node boundaries
// under tag: enc appends v's flat encoding to b, and dec reads it back
// through r, whose methods check every bound. A decoded payload has type T
// exactly, so a pointer payload arrives as a pointer and a value as a
// value. It must copy every byte slice it keeps: the frame it reads from
// may be overwritten once Unmarshal returns. Call it from an init
// function; a tag or type registered twice panics.
func RegisterPayload[T any](tag uint16, enc func(b []byte, v T) []byte, dec func(r *Reader) T) {
	typ := reflect.TypeFor[T]()
	if tag == 0 || typ.Kind() == reflect.Interface {
		panic(fmt.Sprintf("msg: RegisterPayload(%d, %v): tag 0 and interface types are reserved", tag, typ))
	}
	if c, ok := codecByTag[uint64(tag)]; ok {
		panic(fmt.Sprintf("msg: payload tag %d registered for %v and %v", tag, c.typ, typ))
	}
	if c, ok := codecByType[typ]; ok {
		panic(fmt.Sprintf("msg: payload %v registered under tags %d and %d", typ, c.tag, tag))
	}
	c := &codec{
		tag: uint64(tag),
		typ: typ,
		enc: func(b []byte, v any) []byte { return enc(b, v.(T)) },
		dec: func(r *Reader) any { return dec(r) },
	}
	codecByTag[c.tag] = c
	codecByType[typ] = c
}

// frameSlack is the room Marshal leaves beyond the header's strings: the
// header's integers and a small payload fit without growing the frame.
const frameSlack = 160

// Marshal encodes a message into a wire frame for inter-node traffic. The
// payload's type must have been registered with RegisterPayload.
func Marshal(m Message) ([]byte, error) {
	var c *codec
	if m.Payload != nil {
		var ok bool
		if c, ok = codecByType[reflect.TypeOf(m.Payload)]; !ok {
			return nil, fmt.Errorf("msg: payload type %T has no wire tag", m.Payload)
		}
	}
	b := make([]byte, 0, len(m.From.Node)+len(m.FromSys)+len(m.To.Node)+len(m.To.Name)+len(m.Kind)+len(m.Err)+frameSlack)
	b = AppendBytes(b, m.From.Node)
	b = binary.AppendVarint(b, int64(m.From.CPU))
	b = binary.AppendUvarint(b, m.From.Seq)
	b = AppendBytes(b, m.FromSys)
	b = AppendBytes(b, m.To.Node)
	b = AppendBytes(b, m.To.Name)
	b = AppendBytes(b, m.Kind)
	b = binary.AppendUvarint(b, m.Corr)
	b = AppendBool(b, m.IsReply)
	b = AppendBytes(b, m.Err)
	if c == nil {
		return append(b, 0), nil
	}
	return c.enc(binary.AppendUvarint(b, c.tag), m.Payload), nil
}

// Unmarshal decodes a wire frame produced by Marshal. A malformed frame is
// an error: a truncated field, an unknown tag or bytes left after the
// payload. The message shares no memory with b.
func Unmarshal(b []byte) (Message, error) {
	r := Reader{b: b}
	var m Message
	node := r.span(b)
	m.From.CPU = int(r.Varint())
	m.From.Seq = r.Uvarint()
	fromSys := r.span(b)
	toNode := r.span(b)
	toName := r.span(b)
	kind := r.span(b)
	m.Corr = r.Uvarint()
	m.IsReply = r.Bool()
	errText := r.span(b)
	if r.err != nil {
		return Message{}, r.err
	}
	// The header's strings are cut from one copy of the header's bytes,
	// so a frame pays one allocation for all of them.
	hdr := string(b[:len(b)-len(r.b)])
	m.From.Node = hdr[node[0]:node[1]]
	m.FromSys = hdr[fromSys[0]:fromSys[1]]
	m.To.Node = hdr[toNode[0]:toNode[1]]
	m.To.Name = hdr[toName[0]:toName[1]]
	m.Kind = hdr[kind[0]:kind[1]]
	m.Err = hdr[errText[0]:errText[1]]
	tag := r.Uvarint()
	if r.err != nil {
		return Message{}, r.err
	}
	if tag != 0 {
		c, ok := codecByTag[tag]
		if !ok {
			return Message{}, fmt.Errorf("msg: unknown payload tag %d", tag)
		}
		// The payload gets a Reader of its own: passing one to the codec's
		// indirect call moves it to the heap, and a header-only frame
		// should not pay for that.
		pr := &Reader{b: r.b}
		m.Payload = c.dec(pr)
		r = *pr
	}
	if r.err != nil {
		return Message{}, r.err
	}
	if len(r.b) != 0 {
		return Message{}, errTrailing
	}
	return m, nil
}

// AppendBytes appends s with its length in front, the layout Reader's Str
// and Bytes read.
func AppendBytes[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader reads a flat frame field by field. Past the first malformed field
// every read returns a zero value and Err keeps the error, so a decoder
// reads all its fields and the caller checks once. It accepts only what
// the append functions write, which makes an encoding canonical: a value
// decoded from a frame re-encodes to the same bytes.
type Reader struct {
	b   []byte
	err error
}

// Err returns the first error the reader met, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless it already has one: a
// payload codec reports a field its own rules reject.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Take returns the next n bytes. They alias the frame: a caller that keeps
// them must copy.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.Fail(errShortFrame)
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// Uvarint reads a varint-encoded unsigned integer in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	// A longer form than the shortest ends in a zero byte.
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail(errShortFrame)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag varint-encoded signed integer.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if s := r.Take(1); len(s) == 1 {
		return s[0]
	}
	return 0
}

// Bool reads a byte AppendBool wrote; any other byte is an error.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail(errShortFrame)
	}
	return v == 1
}

// Len reads the element count of a slice or map that follows. Every
// element takes at least one byte, so a count beyond the bytes left is an
// error rather than an allocation.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.Fail(errShortFrame)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice into a copy of its own; an
// empty slice decodes as nil.
func (r *Reader) Bytes() []byte {
	s := r.Take(r.Len())
	if len(s) == 0 {
		return nil
	}
	return append([]byte(nil), s...)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Take(r.Len())) }

// span skips a length-prefixed string of frame, the slice r reads, and
// returns its bounds in frame.
func (r *Reader) span(frame []byte) [2]int {
	n := len(r.Take(r.Len()))
	end := len(frame) - len(r.b)
	return [2]int{end - n, end}
}

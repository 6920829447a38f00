package msg_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	_ "encompass/internal/appserver"
	_ "encompass/internal/discproc"
	"encompass/internal/msg"
	_ "encompass/internal/paxoscommit"
	_ "encompass/internal/tmf"
)

// sample builds a value of t with every settable field non-zero: strings
// distinct, slices and maps two elements long, integers past one varint
// byte where they may be.
func sample(t reflect.Type) reflect.Value {
	seq++
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
		v.Elem().Set(sample(t.Elem()))
	case reflect.Struct:
		for i := range t.NumField() {
			if f := v.Field(i); f.CanSet() {
				f.Set(sample(f.Type()))
			}
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seq))
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(seq), 0, 0xff})
			break
		}
		v.Set(reflect.Append(v, sample(t.Elem()), sample(t.Elem())))
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		v.SetMapIndex(sample(t.Key()), sample(t.Elem()))
		v.SetMapIndex(sample(t.Key()), sample(t.Elem()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(2) // 2 is the largest audit.ImageKind
	case reflect.Uint8:
		v.SetUint(3)
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(300)
	default:
		panic(fmt.Sprintf("sample: no value for %v", t))
	}
	return v
}

var seq int

// sampleFrames marshals one sample message per registered tag.
func sampleFrames(t *testing.T) (payloads []any, frames [][]byte) {
	t.Helper()
	_, types := msg.PayloadTags()
	if len(types) < 20 {
		t.Fatalf("%d payload types registered; the real packages were not linked", len(types))
	}
	for _, typ := range types {
		p := sample(typ).Interface()
		b, err := msg.Marshal(msg.Message{FromSys: "west", To: msg.Addr{Node: "east", Name: "svc"}, Kind: "k", Corr: 1, Payload: p})
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		payloads, frames = append(payloads, p), append(frames, b)
	}
	return payloads, frames
}

// TestEveryPayloadRoundTrips: every registered payload crosses a frame
// intact, with the exact dynamic type the sender boxed (handlers type-
// assert it: a pointer stays a pointer, a value a value).
func TestEveryPayloadRoundTrips(t *testing.T) {
	payloads, frames := sampleFrames(t)
	for i, b := range frames {
		m, err := msg.Unmarshal(b)
		if err != nil {
			t.Errorf("%T: %v", payloads[i], err)
			continue
		}
		if !reflect.DeepEqual(m.Payload, payloads[i]) {
			t.Errorf("round trip of %#v = %#v", payloads[i], m.Payload)
		}
	}
}

// TestDecodedPayloadOwnsItsMemory: overwriting a frame after Unmarshal
// leaves the decoded message unchanged. The session layer keeps frames
// for retransmission, so a decoder that aliased the frame would leak
// writes between the two nodes in both directions.
func TestDecodedPayloadOwnsItsMemory(t *testing.T) {
	payloads, frames := sampleFrames(t)
	for i, b := range frames {
		m, err := msg.Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: %v", payloads[i], err)
		}
		want := bytes.Clone(b)
		for j := range b {
			b[j] = 0xAA
		}
		if got, err := msg.Marshal(m); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%T changed when its frame was overwritten: %x, want %x (%v)", payloads[i], got, want, err)
		}
	}
}

// TestMalformedFramesAreErrors: every truncation of every payload's
// frame, a trailing byte and an unknown tag are errors, never a panic or
// a half-filled message passed off as whole.
func TestMalformedFramesAreErrors(t *testing.T) {
	payloads, frames := sampleFrames(t)
	for i, b := range frames {
		for n := range len(b) {
			if _, err := msg.Unmarshal(b[:n]); err == nil {
				t.Errorf("%T truncated to %d of %d bytes decoded without error", payloads[i], n, len(b))
			}
		}
		if _, err := msg.Unmarshal(append(bytes.Clone(b), 0)); err == nil {
			t.Errorf("%T with a trailing byte decoded without error", payloads[i])
		}
	}
	hdr, err := msg.Marshal(msg.Message{Kind: "k"})
	if err != nil {
		t.Fatal(err)
	}
	hdr[len(hdr)-1] = 127 // a tag no package owns
	if _, err := msg.Unmarshal(hdr); err == nil {
		t.Error("unknown payload tag decoded without error")
	}
}

// TestUnregisteredPayloadIsAnError: a payload type without a tag cannot
// be encoded, so it fails at the sender rather than on the wire.
func TestUnregisteredPayloadIsAnError(t *testing.T) {
	if _, err := msg.Marshal(msg.Message{Payload: "text"}); err == nil {
		t.Error("string payload marshaled without a registered tag")
	}
}

package msg_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"encompass/internal/appserver"
	"encompass/internal/discproc"
	"encompass/internal/msg"
	_ "encompass/internal/paxoscommit"
	_ "encompass/internal/tmf"
	"encompass/internal/txid"
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
	case reflect.Interface:
		// A payload that nests another: a record request, the one a
		// remote begin most often carries.
		v.Set(sample(reflect.TypeFor[*discproc.RecReq]()))
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

// tmpBeginTag is the wire tag of tmf's TMP-to-TMP payload, whose remote
// begin may carry another payload.
const tmpBeginTag = 24

// carriedBegin is a TMP remote begin carrying inner as the request it
// relays, built by reflection because the payload type is tmf's own.
func carriedBegin(tb testing.TB, inner any) any {
	tb.Helper()
	tags, types := msg.PayloadTags()
	i := slices.Index(tags, tmpBeginTag)
	if i < 0 {
		tb.Fatalf("no payload registered under tag %d", tmpBeginTag)
	}
	v := reflect.New(types[i]).Elem()
	v.FieldByName("Tx").Set(reflect.ValueOf(txid.ID{Home: "west", CPU: 1, Seq: 42}))
	v.FieldByName("Source").SetString("west")
	v.FieldByName("To").SetString("disc-v1")
	v.FieldByName("Kind").SetString(discproc.KindRead)
	if inner != nil {
		v.FieldByName("Payload").Set(reflect.ValueOf(inner))
	}
	return v.Interface()
}

// TestCarriedPayloadRoundTrips: a remote begin crosses a frame with the
// request it carries intact, whichever payload type that is.
func TestCarriedPayloadRoundTrips(t *testing.T) {
	for _, inner := range []any{
		&discproc.RecReq{Tx: txid.ID{Home: "west", Seq: 1}, File: "accts", Key: "k1", Val: []byte("v"), WithLock: true},
		&appserver.Req{Tx: txid.ID{Home: "west", Seq: 1}, Fields: map[string]string{"ACCT": "7"}},
		nil,
	} {
		p := carriedBegin(t, inner)
		b, err := msg.Marshal(msg.Message{Kind: "tmp.begin", Payload: p})
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		m, err := msg.Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if !reflect.DeepEqual(m.Payload, p) {
			t.Errorf("round trip of %#v = %#v", p, m.Payload)
		}
	}
}

// TestMalformedCarriedPayloadIsAnError: inside a remote begin, a truncated
// carried payload, an unknown carried tag and a byte after the carried
// payload are errors, and a carried payload with no wire tag fails at the
// sender.
func TestMalformedCarriedPayloadIsAnError(t *testing.T) {
	empty, err := msg.Marshal(msg.Message{Kind: "tmp.begin", Payload: carriedBegin(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := msg.Marshal(msg.Message{Kind: "tmp.begin", Payload: carriedBegin(t, &discproc.RecReq{File: "accts", Key: "k1", Val: []byte("v")})})
	if err != nil {
		t.Fatal(err)
	}
	// The carried payload is the frame's tail: its tag sits where the
	// empty begin's tag 0 does.
	inner := len(empty) - 1
	for n := inner + 1; n < len(b); n++ {
		if _, err := msg.Unmarshal(b[:n]); err == nil {
			t.Errorf("carried payload truncated to %d of %d bytes decoded without error", n-inner, len(b)-inner)
		}
	}
	unknown := bytes.Clone(b)
	unknown[inner] = 127 // a tag no package owns
	if _, err := msg.Unmarshal(unknown); err == nil {
		t.Error("unknown carried payload tag decoded without error")
	}
	if _, err := msg.Unmarshal(append(bytes.Clone(b), 0)); err == nil {
		t.Error("a byte after the carried payload decoded without error")
	}
	if _, err := msg.Marshal(msg.Message{Payload: carriedBegin(t, "text")}); err == nil {
		t.Error("a begin carrying a string payload marshaled without a registered tag")
	}
}

// errorFrames are error replies as the system sends them: a server's
// answer with a registered code, a message system's undelivered answer,
// and an answer whose error carries no registered sentinel.
var errorFrames = []msg.Message{
	{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: discproc.KindRead, Corr: 9, IsReply: true, Err: "dbfile: record not found", Code: 4},
	{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: "tmp.begin", Corr: 10, IsReply: true, Err: "hw: cpu down: cpu 3 (receiver)", Code: 20, Undelivered: true},
	{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: "tmp.phase1", Corr: 11, IsReply: true, Err: "boom"},
}

// TestErrorFrameGolden pins the frame layout: a success reply carries no
// code (its bytes are those of the frame before codes existed), and an
// error reply carries its code and completion after the text.
func TestErrorFrameGolden(t *testing.T) {
	for _, c := range []struct {
		m   msg.Message
		hex string
	}{
		{msg.Message{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: "disc.read", Corr: 9, IsReply: true},
			"000000046561737404776573740009646973632e7265616409010000"},
		{msg.Message{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: "disc.read", Corr: 9, IsReply: true, Err: "boom", Code: 4},
			"000000046561737404776573740009646973632e72656164090104626f6f6d040000"},
		{msg.Message{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: "tmp.begin", Corr: 9, IsReply: true, Err: "cpu down", Code: 300, Undelivered: true},
			"000000046561737404776573740009746d702e626567696e09010863707520646f776eac020100"},
	} {
		b, err := msg.Marshal(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", b); got != c.hex {
			t.Errorf("frame of %+v = %s, want %s", c.m, got, c.hex)
		}
	}
}

// TestErrorFramesRoundTrip: an error reply's text, code and completion
// cross a frame intact, every truncation of it is an error, and so are a
// code past 16 bits and a completion byte that is not a bool.
func TestErrorFramesRoundTrip(t *testing.T) {
	for _, m := range errorFrames {
		b, err := msg.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := msg.Unmarshal(b)
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %+v = %+v, %v", m, got, err)
		}
		for n := range len(b) {
			if _, err := msg.Unmarshal(b[:n]); err == nil {
				t.Errorf("%q truncated to %d of %d bytes decoded without error", m.Err, n, len(b))
			}
		}
	}
	m := errorFrames[0]
	b, err := msg.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	at := len(b) - 3 // code (one byte), completion, tag
	wide := slices.Concat(b[:at], []byte{0x80, 0x80, 0x04}, b[at+1:])
	if _, err := msg.Unmarshal(wide); err == nil {
		t.Error("a code past 16 bits decoded without error")
	}
	notBool := bytes.Clone(b)
	notBool[at+1] = 2
	if _, err := msg.Unmarshal(notBool); err == nil {
		t.Error("a completion byte of 2 decoded without error")
	}
}

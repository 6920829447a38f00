package msg_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"encompass/internal/discproc"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

// realFrames are seeds built from payloads the system really sends: a
// remote record request, its reply, and a header-only reply.
func realFrames(f *testing.F) [][]byte {
	f.Helper()
	tx := txid.ID{Home: "west", CPU: 1, Seq: 42}
	var frames [][]byte
	for _, m := range []msg.Message{
		{From: msg.PID{Node: "west", CPU: 1}, FromSys: "west", To: msg.Addr{Node: "east", Name: "disc-v1"}, Kind: discproc.KindUpdate, Corr: 7,
			Payload: &discproc.RecReq{Tx: tx, File: "accts", Key: "k1", Val: []byte("v"), WithLock: true, LockTimeout: time.Second}},
		{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: discproc.KindRead, Corr: 8, IsReply: true, Payload: &discproc.RecReq{Val: []byte("balance")}},
		{FromSys: "east", To: msg.Addr{Node: "west"}, Kind: "tmp.phase1", Corr: 9, IsReply: true, Err: "boom"},
		{Kind: discproc.KindReadRange, Payload: discproc.ReadRangeResp{}},
	} {
		b, err := msg.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b)
	}
	return frames
}

// FuzzUnmarshal throws arbitrary bytes at the frame decoder: it must never
// panic, and any frame it accepts re-encodes to exactly its own bytes.
func FuzzUnmarshal(f *testing.F) {
	for _, b := range realFrames(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x13})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := msg.Unmarshal(b)
		if err != nil {
			return
		}
		b2, err := msg.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal of decoded %+v: %v", m, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("accepted frame re-encodes differently:\n%x\n%x", b, b2)
		}
	})
}

// FuzzFrameBitFlip models the unreliable EXPAND line: it takes a valid
// frame and flips arbitrary bits, asserting the decoder returns an error
// (or a message) — never a panic. This is the exact corruption the fault
// injector produces for frames that slip past the session checksum.
func FuzzFrameBitFlip(f *testing.F) {
	frames := realFrames(f)
	for range frames {
		f.Add(0, uint(0), uint64(1))
	}
	f.Add(1, uint(13), uint64(0x9E3779B97F4A7C15))
	f.Add(2, uint(200), uint64(7))
	f.Fuzz(func(t *testing.T, which int, nflips uint, seed uint64) {
		base := frames[((which%len(frames))+len(frames))%len(frames)]
		mut := append([]byte(nil), base...)
		// Flip up to 64 bits at positions derived from a cheap LCG over the
		// seed, so the mutation is reproducible from the fuzz inputs.
		s := seed
		for i := uint(0); i < nflips%64; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			bit := int(s % uint64(len(mut)*8))
			mut[bit/8] ^= 1 << (bit % 8)
		}
		if _, err := msg.Unmarshal(mut); err != nil {
			return // rejected cleanly: the desired outcome for garbage
		}
	})
}

// FuzzMessageRoundTrip builds messages field by field and checks the
// Marshal/Unmarshal round trip the EXPAND network relies on for value
// semantics between nodes.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add("n1", "disc-v1", "disc.insert", uint64(7), false, "", []byte("v"))
	f.Add("", "", "", uint64(0), true, "remote error", []byte(nil))
	f.Fuzz(func(t *testing.T, node, name, kind string, corr uint64, isReply bool, errStr string, payload []byte) {
		m := msg.Message{
			From:    msg.PID{Node: node, CPU: 1, Seq: corr},
			FromSys: node,
			To:      msg.Addr{Node: node, Name: name},
			Kind:    kind,
			Corr:    corr,
			IsReply: isReply,
			Err:     errStr,
		}
		if len(payload) > 0 {
			m.Payload = &discproc.RecReq{Tx: txid.ID{Home: node, Seq: corr}, File: name, Key: kind, Val: payload}
		}
		b, err := msg.Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", m, err)
		}
		got, err := msg.Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", m, got)
		}
	})
}

// FuzzPayloadRoundTrip puts arbitrary bytes under every registered tag:
// no payload decoder panics, and any payload one accepts re-encodes to
// the same bytes.
func FuzzPayloadRoundTrip(f *testing.F) {
	tags, types := msg.PayloadTags()
	for i, typ := range types {
		b, err := msg.Marshal(msg.Message{Payload: sample(typ).Interface()})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint(i), b[len(emptyHeader(f))+len(binary.AppendUvarint(nil, uint64(tags[i]))):])
	}
	f.Fuzz(func(t *testing.T, which uint, body []byte) {
		frame := append(emptyHeader(t), binary.AppendUvarint(nil, uint64(tags[which%uint(len(tags))]))...)
		frame = append(frame, body...)
		m, err := msg.Unmarshal(frame)
		if err != nil {
			return
		}
		b, err := msg.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal of decoded %#v: %v", m.Payload, err)
		}
		if !bytes.Equal(frame, b) {
			t.Fatalf("accepted %T re-encodes differently:\n%x\n%x", m.Payload, frame, b)
		}
	})
}

// emptyHeader is the encoding of a zero message's header, without the
// payload tag.
func emptyHeader(tb testing.TB) []byte {
	b, err := msg.Marshal(msg.Message{})
	if err != nil {
		tb.Fatal(err)
	}
	return b[:len(b)-1]
}

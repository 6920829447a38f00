package audit

import (
	"bytes"
	"reflect"
	"testing"

	"encompass/internal/txid"
)

// FuzzRecordRoundTrip drives the record codec with arbitrary field
// values: whatever encodeRecord produces, decodeRecord must accept and
// return field-identical (including the nil/empty distinction on the
// image byte slices), also when it decodes as one of a scan's run of
// images, sharing names with the records before it; and a decode of the
// same bytes under a different chain head or expected LSN must fail
// rather than mis-attribute the record.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("n0", uint32(1), uint64(7), byte(1), "v1", "accounts", "b0001-a000001", []byte("100"), []byte("90"), uint64(42), false, false)
	f.Add("", uint32(0), uint64(0), byte(0), "", "", "", []byte(nil), []byte(nil), uint64(1), true, true)
	f.Add("remote", uint32(15), uint64(1<<40), byte(2), "v2", "hist", "k", []byte{}, []byte(nil), uint64(9000), false, true)
	// Scan-shaped: a backout's update, whose names repeat.
	f.Add("v1", uint32(2), uint64(40), byte(1), "v1", "v1", "k000039", []byte{}, []byte{}, uint64(80), false, false)
	f.Fuzz(func(t *testing.T, home string, cpu uint32, seq uint64, kind byte,
		vol, file, key string, before, after []byte, lsn uint64, beforeNil, afterNil bool) {
		if lsn == 0 {
			lsn = 1 // LSN 0 is "no expectation" in decodeRecord; trails never assign it
		}
		if beforeNil {
			before = nil
		}
		if afterNil {
			after = nil
		}
		img := Image{
			LSN: lsn,
			Tx:  txid.ID{Home: home, CPU: int(cpu), Seq: seq},
			// Only defined kinds are encodable; DecodeBody rejects the rest.
			Kind:   ImageKind(kind % 3),
			Volume: vol, File: file, Key: key,
			Before: before, After: after,
		}
		var prev [chainLen]byte
		prev[0] = 0xA5
		buf, chain := encodeRecord(nil, &img, prev)

		got, gotChain, n, err := decodeRecord(buf, prev, lsn, nil)
		if err != nil {
			t.Fatalf("decode of freshly encoded record failed: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if gotChain != chain {
			t.Fatalf("decode advanced the chain differently than encode")
		}
		if got.LSN != img.LSN || got.Tx != img.Tx || got.Kind != img.Kind ||
			got.Volume != img.Volume || got.File != img.File || got.Key != img.Key {
			t.Fatalf("round trip mutated fields: %+v != %+v", got, img)
		}
		for _, p := range [][2][]byte{{got.Before, img.Before}, {got.After, img.After}} {
			if (p[0] == nil) != (p[1] == nil) || !bytes.Equal(p[0], p[1]) {
				t.Fatalf("round trip mutated an image slice: %q (nil=%v) != %q (nil=%v)",
					p[0], p[0] == nil, p[1], p[1] == nil)
			}
		}

		// In a scan the record decodes against names its run already holds:
		// first none, then its own.
		var names nameSet
		for range 2 {
			again, _, _, err := decodeRecord(buf, prev, lsn, &names)
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("scan decode = %+v, %v; want %+v", again, err, got)
			}
		}

		// The same bytes under a different chain head must not verify:
		// otherwise records could be spliced between histories.
		var other [chainLen]byte
		if _, _, _, err := decodeRecord(buf, other, lsn, nil); err == nil {
			t.Fatal("record verified under a foreign chain head")
		}
		if _, _, _, err := decodeRecord(buf, prev, lsn+1, nil); err == nil {
			t.Fatal("record verified under the wrong expected LSN")
		}
	})
}

// FuzzOpenTrail feeds arbitrary bytes to OpenTrail as recovered segment
// media, seeded with genuine dumps and mutations of them. Whatever the
// bytes, Open must not panic, and everything it accepts must be
// internally consistent: a clean open (no torn report) must verify chain
// intact, a reported open must still verify over the surviving prefix,
// and the verified record count must match the trail's LSN window — no
// false-positive verification over damaged media.
func FuzzOpenTrail(f *testing.F) {
	tr := NewTrail("fz", 0)
	tr.SetSegmentCapacity(4)
	for i := 0; i < 10; i++ {
		tr.Append(Image{Tx: txid.ID{Home: "n0", CPU: 1, Seq: uint64(i + 1)},
			Volume: "v", File: "f", Key: "k", Kind: ImageUpdate,
			Before: []byte{byte(i)}, After: []byte{byte(i + 1)}})
	}
	tr.ForceAll()
	dumps := tr.DumpSegments()
	var whole []byte
	var cuts []int
	for _, d := range dumps {
		whole = append(whole, d.Bytes...)
		cuts = append(cuts, len(whole))
	}
	f.Add([]byte(nil), 0)
	f.Add(whole[:cuts[0]], 0)
	f.Add(whole, cuts[0])
	f.Add(whole[:len(whole)-3], cuts[0])
	mut := append([]byte(nil), whole...)
	mut[cuts[0]+segHeaderLen+9] ^= 0x40
	f.Add(mut, cuts[0])
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		var segs [][]byte
		if cut > 0 && cut < len(data) {
			segs = [][]byte{data[:cut], data[cut:]}
		} else if len(data) > 0 {
			segs = [][]byte{data}
		}
		opened, report := OpenTrail("fz", 0, segs)
		n, err := opened.VerifyChain()
		if err != nil {
			if report == nil {
				t.Fatalf("clean open but chain verification failed: %v", err)
			}
			t.Fatalf("open reported %v but kept media that fails verification: %v", report, err)
		}
		if want := int(opened.AppendedLSN() + 1 - opened.TrimmedLSN()); n > want {
			t.Fatalf("verified %d records in an LSN window of %d", n, want)
		}
		// Everything retained must stream without error.
		r, serr := opened.Stream(0)
		if serr != nil {
			t.Fatalf("stream over opened trail: %v", serr)
		}
		streamed := 0
		for {
			_, ok, nerr := r.Next()
			if nerr != nil {
				t.Fatalf("stream over opened trail: %v", nerr)
			}
			if !ok {
				break
			}
			streamed++
		}
		if streamed != n {
			t.Fatalf("streamed %d records but VerifyChain counted %d", streamed, n)
		}
	})
}

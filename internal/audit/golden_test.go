package audit

import (
	"bytes"
	"encoding/hex"
	"testing"

	"encompass/internal/txid"
)

// goldenImages cover the corners of the record body: nil against empty
// Before and After, an empty Tx.Home, an empty Key and every ImageKind.
var goldenImages = []Image{
	{LSN: 1, Tx: txid.ID{Home: "n0", CPU: 1, Seq: 7}, Volume: "v1", File: "accounts", Key: "k1", Kind: ImageInsert, Before: nil, After: []byte("100")},
	{LSN: 2, Tx: txid.ID{}, Volume: "v1", File: "accounts", Key: "", Kind: ImageUpdate, Before: []byte{}, After: []byte("90")},
	{LSN: 3, Tx: txid.ID{Home: "remote", CPU: 15, Seq: 1 << 40}, Volume: "", File: "hist", Key: "b0001-a000001", Kind: ImageDelete, Before: []byte("x"), After: nil},
	{LSN: 4, Tx: txid.ID{Home: "n0", CPU: 3, Seq: 9}, Volume: "v2", File: "f", Key: "k", Kind: ImageUpdate, Before: nil, After: []byte{}},
}

// goldenRecords are goldenImages framed in order from a zero chain head,
// as the encoder wrote them when it still built each record in scratch
// buffers. The on-media format must not drift from these bytes.
var goldenRecords = []string{
	"620000000100000000000000020000006e3001000000070000000000000000020000007631080000006163636f756e7473020000006b31ffffffff030000003130304177a57ddfa087005d349ad6802e6bc0c7020da0222cdf1ad29f9bc0b1b997f6e4d863e1",
	"5d00000002000000000000000000000000000000000000000000000001020000007631080000006163636f756e74730000000000000000020000003930e9a94fd378e7c8fb8e3e397a9ed3adedeca8413f04ccfbb628be3300cfa396099f16a99e",
	"6900000003000000000000000600000072656d6f74650f0000000000000000010000020000000004000000686973740d00000062303030312d613030303030310100000078ffffffff22262abdc5c87d977295655b9828ffdadc6d05cbe1d9fdaefc62307533ca5fd809c09efc",
	"570000000400000000000000020000006e30030000000900000000000000010200000076320100000066010000006bffffffff00000000b559dc581a490abe61be0792245ba6519343ecb52dc50f7ff2b296afa66c9bc5939bd62b",
}

// goldenDecisions cover an accept with every field set and an outcome
// with an empty transid and instance; goldenDecisionLog is the buffer of
// a decision log they were appended to.
var goldenDecisions = []DecisionRecord{
	{Tx: txid.ID{Home: "n0", CPU: 2, Seq: 5}, Kind: DecisionAccept, Instance: "p1", Ballot: 3, Value: 1},
	{Kind: DecisionOutcome, Value: 2},
}

const goldenDecisionLog = "4e000000010000000000000003020000006e300200000005000000000000000200000070310300000000000000010daa824f8c522cf72d562a1d63e548fd9743a8f86b0c5c0e4a49401bf4bc7586216a64b34a00000002000000000000000400000000000000000000000000000000000000000000000000000000029de0ebcd3a0971d99a97fc7cacdb30e841ba7aca26da80bef3b5c8200b52c0e484a799d7"

// TestRecordFormatGolden pins the framed bytes of audit and decision
// records, through the codec and through the trail's own append path.
func TestRecordFormatGolden(t *testing.T) {
	var prev [chainLen]byte
	var all []byte
	for i := range goldenImages {
		var b []byte
		b, prev = encodeRecord(nil, &goldenImages[i], prev)
		if got := hex.EncodeToString(b); got != goldenRecords[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i, got, goldenRecords[i])
		}
		all = append(all, b...)
	}

	tr := NewTrail("golden", 0)
	for _, img := range goldenImages {
		img.LSN = 0 // the trail assigns it
		tr.Append(img)
	}
	tr.ForceAll()
	dumps := tr.DumpSegments()
	if len(dumps) != 1 || !bytes.Equal(dumps[0].Bytes[segHeaderLen:], all) {
		t.Errorf("trail segment does not hold the golden records")
	}

	l := NewDecisionLog("golden", 0)
	for _, r := range goldenDecisions {
		l.Append(r)
	}
	if got := hex.EncodeToString(l.buf); got != goldenDecisionLog {
		t.Errorf("decision log:\n got %s\nwant %s", got, goldenDecisionLog)
	}
}

// TestSegmentAppendAllocs: framing a record into a segment and indexing
// it allocates nothing beyond the amortized growth of the segment's
// buffer, record index and transaction map.
func TestSegmentAppendAllocs(t *testing.T) {
	seg := newSegment(0, 1, 0, [chainLen]byte{}, segSize{})
	img := goldenImages[0]
	lsn := uint64(0)
	n := testing.AllocsPerRun(DefaultSegmentRecords-1, func() {
		lsn++
		img.Tx.Seq = lsn / 4 // four records per transaction, as in TP1
		seg.append(lsn, &img)
	})
	if n != 0 {
		t.Errorf("segment append = %v allocs per record, want 0", n)
	}
}

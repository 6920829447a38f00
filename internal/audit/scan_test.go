package audit

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"encompass/internal/txid"
)

// scanImages is a backout-shaped run: one transaction's images over two
// volumes, interleaved with another transaction's, with nil against empty
// before and after images and a home, volume or file that changes between
// neighbours.
func scanImages() []Image {
	a, b := txid.ID{Home: "n0", CPU: 1, Seq: 7}, txid.ID{Home: "n1", CPU: 0, Seq: 3}
	var out []Image
	for i := 0; i < 12; i++ {
		img := Image{Tx: a, Volume: "v1", File: "accounts", Key: fmt.Sprintf("k%03d", i),
			Kind: ImageUpdate, Before: []byte(fmt.Sprintf("before-%d", i)), After: []byte("after")}
		switch i % 4 {
		case 1:
			img.Volume, img.File = "v2", "history"
			img.Kind, img.Before = ImageInsert, nil
		case 2:
			img.Kind, img.After = ImageDelete, nil
		case 3:
			img.Before, img.After = []byte{}, []byte{}
		}
		out = append(out, img)
		if i%3 == 0 {
			out = append(out, Image{Tx: b, Volume: "v1", File: "accounts", Key: "other", Kind: ImageUpdate, Before: []byte("x"), After: []byte("y")})
		}
	}
	return out
}

// plainDecode decodes the record at lsn with DecodeBody alone, sharing
// nothing with any other image.
func plainDecode(t *testing.T, tr *Trail, lsn uint64) Image {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seg := tr.segmentOfLocked(lsn)
	i := int(lsn - seg.base)
	_, body, _, _, err := readFrame(seg.buf[seg.offsets[i]:], seg.chainBefore(i), lsn)
	if err != nil {
		t.Fatal(err)
	}
	img, err := DecodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	img.LSN = lsn
	return img
}

// cloneImage deep-copies img, keeping the nil form of its byte slices.
func cloneImage(img Image) Image {
	img.Before = bytes.Clone(img.Before)
	img.After = bytes.Clone(img.After)
	return img
}

// TestScanMatchesDecodeBody: the images a scan returns equal, field by
// field and in the nil form of their byte slices, what a plain DecodeBody
// of each record gives; they own their bytes, so the reuse of the
// segment's tail by fresh appends after CrashLoseUnforced leaves them as
// they were.
func TestScanMatchesDecodeBody(t *testing.T) {
	tr := NewTrail("a1", 0)
	// Ten records a segment: the scan crosses from the first, sealed
	// segment into the second, whose unforced tail a crash truncates and
	// fresh appends then overwrite in place.
	tr.SetSegmentCapacity(10)
	imgs := scanImages()
	const durable = 12
	tr.AppendBatch(imgs[:durable])
	tr.ForceAll()
	tr.AppendBatch(imgs[durable:])
	tx := imgs[0].Tx

	got := tr.ImagesForUnforced(tx)
	if len(got) != 12 {
		t.Fatalf("scan = %d images, want 12", len(got))
	}
	kept := make([]Image, len(got))
	for i, img := range got {
		if want := plainDecode(t, tr, img.LSN); !reflect.DeepEqual(img, want) {
			t.Fatalf("scanned image %d = %+v, DecodeBody gives %+v", i, img, want)
		}
		kept[i] = cloneImage(img)
	}
	if durable := tr.ImagesFor(tx); !reflect.DeepEqual(durable, got[:len(durable)]) {
		t.Fatalf("durable scan = %+v, want the unforced scan's prefix", durable)
	}

	lost := tr.CrashLoseUnforced()
	if lost == 0 {
		t.Fatal("nothing was unforced")
	}
	for i := 0; i < lost; i++ { // same lengths, other bytes: the old tail is overwritten
		fresh := cloneImage(imgs[durable+i])
		for _, b := range [][]byte{fresh.Before, fresh.After} {
			for j := range b {
				b[j] ^= 0xFF
			}
		}
		tr.Append(fresh)
	}
	if !reflect.DeepEqual(got, kept) {
		t.Fatalf("scanned images changed under the segment's reuse:\n got %+v\nwant %+v", got, kept)
	}
}

// TestScanAllocsPerImage pins the backout scan's cost: the result is sized
// once, an image costs its key, its before-image and its after-image, and
// each distinct volume and file name is copied once per scan (here three:
// v1, v2, accounts; the home is the transaction's own).
func TestScanAllocsPerImage(t *testing.T) {
	const images = 40
	tr := NewTrail("a1", 0)
	tx := txid.ID{Home: "n0", CPU: 1, Seq: 7}
	for i := 0; i < images; i++ {
		vol := []string{"v1", "v2"}[i%2]
		tr.Append(Image{Tx: tx, Volume: vol, File: "accounts", Key: fmt.Sprintf("k%03d", i),
			Kind: ImageUpdate, Before: []byte("orig"), After: []byte("dirty")})
	}
	n := testing.AllocsPerRun(20, func() {
		if got := tr.ImagesForUnforced(tx); len(got) != images {
			t.Fatalf("scan = %d images", len(got))
		}
	})
	if max := float64(1 + 3*images + 3); n > max {
		t.Errorf("scan of %d images = %v allocs, want <= %v", images, n, max)
	}
}

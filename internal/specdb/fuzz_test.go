package specdb

// FuzzSpecPage hammers the page decoder with arbitrary images. The
// contract under fuzzing: DecodePage never panics, never accepts an
// image whose checksum does not match, and every accepted page
// satisfies the structural invariants the B-tree relies on (parallel
// slices, sorted keys, in-bounds lengths).

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// buildSeedPages produces one valid page of each type via the real
// encoders, plus hostile variants.
func buildSeedPages(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte

	seeds = append(seeds, encodeMeta(meta{seq: 7, root: 3, npages: 9, nextOrd: 4, count: 2}))

	tx := newTx(&Snapshot{meta: meta{npages: 2}})
	tx.writeNode(&node{leaf: true,
		keys:  [][]byte{[]byte("api:kfree | k1"), []byte("iface:ops | k2")},
		vals:  [][]byte{[]byte("small"), []byte(strings.Repeat("v", maxInline+9))},
		ovfs:  []uint64{0, 0},
		vlens: []uint32{5, uint32(maxInline + 9)},
	})
	tx.writeNode(&node{
		keys: [][]byte{[]byte("m")},
		kids: []ref{{id: 2}, {id: 3}},
	})
	for off := 0; off < len(tx.out); off += PageSize {
		seeds = append(seeds, tx.out[off:off+PageSize])
	}

	// Corrupt variants: flipped payload byte, flipped checksum, wrong
	// type with a valid checksum, short and empty images.
	flip := append([]byte(nil), seeds[0]...)
	flip[40] ^= 0xFF
	reseal := append([]byte(nil), seeds[1]...)
	reseal[0] = 0x7F
	sealPage(reseal)
	badsum := append([]byte(nil), seeds[1]...)
	binary.LittleEndian.PutUint64(badsum[checksumOff:], 0xDEADBEEF)
	empty := make([]byte, PageSize)
	seeds = append(seeds, flip, reseal, badsum, empty, []byte("short"), nil)
	return seeds
}

func FuzzSpecPage(f *testing.F) {
	for _, seed := range buildSeedPages(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePage(data)
		if err != nil {
			if p != nil {
				t.Fatal("DecodePage returned both a page and an error")
			}
			return
		}
		if len(data) != PageSize {
			t.Fatalf("accepted a %d-byte page image", len(data))
		}
		if got := binary.LittleEndian.Uint64(data[checksumOff:]); got != checksum(data[:checksumOff]) {
			t.Fatal("accepted a page with a bad checksum")
		}
		switch p.Type {
		case pageMeta:
			// Nothing further: all meta fields are plain integers.
		case pageLeaf:
			if len(p.Vals) != len(p.Keys) || len(p.Ovf) != len(p.Keys) || len(p.VLen) != len(p.Keys) {
				t.Fatalf("leaf slices out of parallel: %d keys, %d vals, %d ovf, %d vlen",
					len(p.Keys), len(p.Vals), len(p.Ovf), len(p.VLen))
			}
			for i := range p.Keys {
				if p.Ovf[i] == 0 && int(p.VLen[i]) != len(p.Vals[i]) {
					t.Fatalf("leaf cell %d: inline length %d but vlen %d", i, len(p.Vals[i]), p.VLen[i])
				}
				if p.Ovf[i] != 0 && len(p.Vals[i]) != 0 {
					t.Fatalf("leaf cell %d carries both inline bytes and an overflow chain", i)
				}
			}
			assertSorted(t, p.Keys)
		case pageBranch:
			if len(p.Kids) != len(p.Keys)+1 {
				t.Fatalf("branch has %d kids for %d keys", len(p.Kids), len(p.Keys))
			}
			assertSorted(t, p.Keys)
		case pageOverflow:
			if len(p.Data) > ovfChunk {
				t.Fatalf("overflow data %d exceeds chunk capacity", len(p.Data))
			}
		default:
			t.Fatalf("accepted unknown page type %d", p.Type)
		}
	})
}

func assertSorted(t *testing.T, keys [][]byte) {
	t.Helper()
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("accepted unsorted keys at %d", i)
		}
	}
}

// Package specdb is a paged, B-tree-indexed, on-disk spec store with
// copy-on-write page snapshots and an atomic dual-meta-page commit.
//
// The file is an array of fixed-size pages. Pages 0 and 1 are the two
// alternating meta slots: a commit with sequence number S writes its
// meta page to slot S%2, so the previous commit's meta survives intact
// in the other slot and a crash anywhere during a commit recovers to
// the last fully committed snapshot. Data pages are never rewritten —
// a writer allocates fresh pages from the end of the file (copy-on-write
// up the B-tree path), syncs them, then publishes the new root by
// writing and syncing the meta page. Readers holding a Snapshot keep a
// consistent view for as long as they like: nothing they can reach is
// ever overwritten (Compact switches to a new file and retires the old
// handle only when the Store is closed).
//
// Every page carries a 64-bit FNV-1a checksum over its payload in its
// final 8 bytes, so torn writes and bit rot are detected at read time
// rather than silently decoded.
//
// Page layouts (all integers little-endian; C = PageSize-8 is the
// checksum offset):
//
//	meta:     type(1)=1 | magic(8) | version(4) | pagesize(4) |
//	          seq(8) | root(8) | npages(8) | nextord(8) | count(8) |
//	          walseq(8)
//	leaf:     type(1)=2 | nkeys(2) | cells...
//	          cell: klen(2) | vlen(4) | ovf(8) | key | inline-value
//	          (the value bytes are inline when ovf==0, otherwise the
//	          whole value lives in the overflow chain starting at ovf)
//	branch:   type(1)=3 | nkeys(2) | child0(8) | cells...
//	          cell: klen(2) | child(8) | key
//	          (keys[i] is the minimum key of the subtree at child i+1)
//	overflow: type(1)=4 | next(8) | dlen(4) | data
package specdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

const (
	// PageSize is the fixed on-disk page size.
	PageSize = 4096
	// FormatVersion is the store format this build reads and writes.
	// Stores written by a different format are rejected at Open with
	// ErrVersion — never decoded on a best-effort basis.
	FormatVersion = 1
	// MaxKeyLen bounds key length so that any page holds at least three
	// worst-case cells, which guarantees node splits always produce two
	// halves that each fit in a page.
	MaxKeyLen = 768

	magic = "SEALSPDB"

	pageMeta     = 1
	pageLeaf     = 2
	pageBranch   = 3
	pageOverflow = 4

	checksumOff = PageSize - 8 // payload is [0:checksumOff]

	// maxInline is the largest value stored inside a leaf cell; longer
	// values move entirely to an overflow chain.
	maxInline = 512

	leafHdr  = 3  // type + nkeys
	leafCell = 14 // klen(2) + vlen(4) + ovf(8)

	branchHdr  = 11 // type + nkeys + child0
	branchCell = 10 // klen(2) + child(8)

	ovfHdr   = 13 // type + next(8) + dlen(4)
	ovfChunk = checksumOff - ovfHdr
)

// Sentinel errors. Open and read paths wrap these with file/page context;
// use errors.Is to classify.
var (
	// ErrVersion marks a store written by a different format version.
	ErrVersion = errors.New("specdb: format version skew")
	// ErrCorrupt marks a page that fails checksum or structural decode.
	ErrCorrupt = errors.New("specdb: corrupt page")
	// ErrNotStore marks a file with no valid meta page at all.
	ErrNotStore = errors.New("specdb: not a spec store")
	// ErrReadOnly is returned by write operations on a read-only store.
	ErrReadOnly = errors.New("specdb: store is read-only")
	// ErrSnapshotGone is returned by OpenAt when the requested sequence
	// number matches neither resident meta slot (the snapshot has been
	// superseded twice, or never existed).
	ErrSnapshotGone = errors.New("specdb: snapshot no longer resident")
	// ErrKeyTooLong is returned by Put for keys above MaxKeyLen.
	ErrKeyTooLong = errors.New("specdb: key exceeds maximum length")
)

// file is the slice of *os.File the store needs. The crash-consistency
// harness substitutes a recording implementation to replay torn and
// truncated commit prefixes.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
	Size() (int64, error)
	Truncate(size int64) error
}

type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
func (o osFile) Truncate(size int64) error { return o.f.Truncate(size) }

// checksum is FNV-1a over the page payload.
func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// sealPage stamps the checksum into the page's final 8 bytes.
func sealPage(buf []byte) {
	binary.LittleEndian.PutUint64(buf[checksumOff:], checksum(buf[:checksumOff]))
}

// meta is the decoded content of a meta slot. walSeq is the WAL record
// sequence number this commit folded up to; WAL records with a higher
// sequence are the unfolded tail and replay on open. Stores written
// before the WAL existed carry zero bytes there and decode as walSeq 0,
// so the field is backward compatible within FormatVersion 1.
type meta struct {
	seq     uint64
	root    uint64
	npages  uint64
	nextOrd uint64
	count   uint64
	walSeq  uint64
}

func encodeMeta(m meta) []byte {
	buf := make([]byte, PageSize)
	buf[0] = pageMeta
	copy(buf[1:9], magic)
	binary.LittleEndian.PutUint32(buf[9:13], FormatVersion)
	binary.LittleEndian.PutUint32(buf[13:17], PageSize)
	binary.LittleEndian.PutUint64(buf[17:25], m.seq)
	binary.LittleEndian.PutUint64(buf[25:33], m.root)
	binary.LittleEndian.PutUint64(buf[33:41], m.npages)
	binary.LittleEndian.PutUint64(buf[41:49], m.nextOrd)
	binary.LittleEndian.PutUint64(buf[49:57], m.count)
	binary.LittleEndian.PutUint64(buf[57:65], m.walSeq)
	sealPage(buf)
	return buf
}

// Page is the decoded form of one on-disk page, exposed for inspection
// (seal specdb -verify) and fuzzing (FuzzSpecPage). DecodePage never
// panics on arbitrary input.
type Page struct {
	Type byte

	// Meta fields (Type == 1).
	Version uint32
	PageSz  uint32
	Seq     uint64
	Root    uint64
	NPages  uint64
	NextOrd uint64
	Count   uint64
	WALSeq  uint64

	// Node fields (Type == 2 or 3).
	Keys [][]byte
	Vals [][]byte // leaf inline values (nil for overflow values)
	Ovf  []uint64 // leaf per-key overflow head, 0 = inline
	VLen []uint32 // leaf full value lengths
	Kids []uint64 // branch children, len(Keys)+1

	// Overflow fields (Type == 4).
	Next uint64
	Data []byte
}

// DecodePage verifies the checksum and decodes one page image. The input
// must be exactly PageSize bytes. Structural errors wrap ErrCorrupt.
func DecodePage(buf []byte) (*Page, error) {
	if len(buf) != PageSize {
		return nil, fmt.Errorf("%w: page image is %d bytes, want %d", ErrCorrupt, len(buf), PageSize)
	}
	want := binary.LittleEndian.Uint64(buf[checksumOff:])
	if got := checksum(buf[:checksumOff]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %#x, computed %#x)", ErrCorrupt, want, got)
	}
	return decodePageTrusted(buf)
}

// decodePageTrusted parses a page image whose checksum is known good:
// DecodePage just verified it, or a lookup cache holds it from an
// earlier verified read.
func decodePageTrusted(buf []byte) (*Page, error) {
	p := &Page{Type: buf[0]}
	switch p.Type {
	case pageMeta:
		if string(buf[1:9]) != magic {
			return nil, fmt.Errorf("%w: bad magic in meta page", ErrCorrupt)
		}
		p.Version = binary.LittleEndian.Uint32(buf[9:13])
		p.PageSz = binary.LittleEndian.Uint32(buf[13:17])
		p.Seq = binary.LittleEndian.Uint64(buf[17:25])
		p.Root = binary.LittleEndian.Uint64(buf[25:33])
		p.NPages = binary.LittleEndian.Uint64(buf[33:41])
		p.NextOrd = binary.LittleEndian.Uint64(buf[41:49])
		p.Count = binary.LittleEndian.Uint64(buf[49:57])
		p.WALSeq = binary.LittleEndian.Uint64(buf[57:65])
		return p, nil
	case pageLeaf:
		n := int(binary.LittleEndian.Uint16(buf[1:3]))
		// Size the cell slices once, capped by how many cells fit.
		c := min(n, (checksumOff-leafHdr)/leafCell)
		p.Keys, p.Vals = make([][]byte, 0, c), make([][]byte, 0, c)
		p.Ovf, p.VLen = make([]uint64, 0, c), make([]uint32, 0, c)
		off := leafHdr
		for i := 0; i < n; i++ {
			if off+leafCell > checksumOff {
				return nil, fmt.Errorf("%w: leaf cell %d header out of bounds", ErrCorrupt, i)
			}
			klen := int(binary.LittleEndian.Uint16(buf[off : off+2]))
			vlen := binary.LittleEndian.Uint32(buf[off+2 : off+6])
			ovf := binary.LittleEndian.Uint64(buf[off+6 : off+14])
			off += leafCell
			inline := 0
			if ovf == 0 {
				inline = int(vlen)
			}
			if klen > MaxKeyLen || inline > maxInline || off+klen+inline > checksumOff {
				return nil, fmt.Errorf("%w: leaf cell %d payload out of bounds", ErrCorrupt, i)
			}
			p.Keys = append(p.Keys, buf[off:off+klen])
			off += klen
			var val []byte
			if ovf == 0 {
				val = buf[off : off+inline]
			}
			p.Vals = append(p.Vals, val)
			off += inline
			p.Ovf = append(p.Ovf, ovf)
			p.VLen = append(p.VLen, vlen)
		}
		if err := checkKeyOrder(p.Keys); err != nil {
			return nil, err
		}
		return p, nil
	case pageBranch:
		n := int(binary.LittleEndian.Uint16(buf[1:3]))
		if n == 0 {
			return nil, fmt.Errorf("%w: branch page with no keys", ErrCorrupt)
		}
		c := min(n, (checksumOff-branchHdr)/branchCell)
		p.Keys, p.Kids = make([][]byte, 0, c), make([]uint64, 0, c+1)
		off := branchHdr
		p.Kids = append(p.Kids, binary.LittleEndian.Uint64(buf[3:11]))
		for i := 0; i < n; i++ {
			if off+branchCell > checksumOff {
				return nil, fmt.Errorf("%w: branch cell %d header out of bounds", ErrCorrupt, i)
			}
			klen := int(binary.LittleEndian.Uint16(buf[off : off+2]))
			child := binary.LittleEndian.Uint64(buf[off+2 : off+10])
			off += branchCell
			if klen > MaxKeyLen || off+klen > checksumOff {
				return nil, fmt.Errorf("%w: branch cell %d key out of bounds", ErrCorrupt, i)
			}
			p.Keys = append(p.Keys, buf[off:off+klen])
			off += klen
			p.Kids = append(p.Kids, child)
		}
		if err := checkKeyOrder(p.Keys); err != nil {
			return nil, err
		}
		return p, nil
	case pageOverflow:
		p.Next = binary.LittleEndian.Uint64(buf[1:9])
		dlen := binary.LittleEndian.Uint32(buf[9:13])
		if int(dlen) > ovfChunk {
			return nil, fmt.Errorf("%w: overflow length %d exceeds chunk capacity", ErrCorrupt, dlen)
		}
		p.Data = buf[ovfHdr : ovfHdr+int(dlen)]
		return p, nil
	default:
		return nil, fmt.Errorf("%w: unknown page type %d", ErrCorrupt, p.Type)
	}
}

func checkKeyOrder(keys [][]byte) error {
	for i := 1; i < len(keys); i++ {
		if string(keys[i-1]) >= string(keys[i]) {
			return fmt.Errorf("%w: keys out of order", ErrCorrupt)
		}
	}
	return nil
}

// decodeMetaSlot reads and validates one of the two meta slots. A
// non-zero skew return means the slot is a structurally valid meta page
// written by a different format version, so Open can report version
// skew cleanly instead of "corrupt".
func decodeMetaSlot(f file, slot uint64) (m meta, skew uint32, ok bool) {
	buf := make([]byte, PageSize)
	if _, err := f.ReadAt(buf, int64(slot)*PageSize); err != nil {
		return meta{}, 0, false
	}
	p, err := DecodePage(buf)
	if err != nil || p.Type != pageMeta {
		return meta{}, 0, false
	}
	if p.Version != FormatVersion || p.PageSz != PageSize {
		return meta{}, p.Version, false
	}
	return meta{seq: p.Seq, root: p.Root, npages: p.NPages, nextOrd: p.NextOrd, count: p.Count, walSeq: p.WALSeq}, 0, true
}

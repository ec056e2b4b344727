// Copy-on-write B-tree over the page file. Committed pages are never
// modified, so every committed root spans an immutable subtree and
// snapshots are free. A write transaction decodes each committed node
// it descends once, into a dirty in-memory node, and mutates it there;
// the commit then encodes, seals and writes every dirty node reachable
// from the root exactly once, to fresh pages. Deletion does not
// rebalance: empty leaves are unlinked from their parent and
// single-child branches collapse, which keeps the tree valid (if
// right-heavy after many deletes); Compact rebuilds a tight tree.
package specdb

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// pageSource resolves a page id to its verified page image.
type pageSource interface {
	page(id uint64) ([]byte, error)
}

// ref points at a subtree: a committed page, or the dirty in-memory
// node a write transaction has taken that page over as.
type ref struct {
	id uint64 // committed page id (0 with n nil = empty tree); stale once n is set
	n  *node  // dirty node, nil while the subtree is untouched
}

func (r ref) empty() bool { return r.id == 0 && r.n == nil }

// node is the in-memory form of a leaf or branch page. Leaf values are
// lazy: an overflow-backed value stays a (chain head, length) pair until
// something actually needs its bytes, and an unchanged overflow value is
// written back as a pointer to its existing chain, never re-spilled — so
// inserting into a leaf neither reads nor rewrites its neighbors'
// chains.
type node struct {
	leaf  bool
	keys  [][]byte
	vals  [][]byte // leaf only; nil for an unresolved overflow value
	ovfs  []uint64 // leaf only: existing overflow chain head per value (0 = inline or modified)
	vlens []uint32 // leaf only: declared value length
	kids  []ref    // branch only, len(keys)+1
}

// value materializes leaf value i, resolving its overflow chain on
// first use.
func (n *node) value(src pageSource, i int) ([]byte, error) {
	if n.vals[i] != nil || n.ovfs[i] == 0 {
		return n.vals[i], nil
	}
	v, err := readOverflow(src, n.ovfs[i], n.vlens[i])
	if err != nil {
		return nil, err
	}
	n.vals[i] = v
	return v, nil
}

// readPage reads and checks page id. Through a snapCache, a tree page
// whose checksum already verified is served from the cache instead.
func readPage(src pageSource, id uint64) (*Page, error) {
	c, cached := src.(*snapCache)
	if cached {
		if buf, ok := c.verified[id]; ok {
			p, err := decodePageTrusted(buf)
			if err != nil {
				return nil, fmt.Errorf("page %d: %w", id, err)
			}
			return p, nil
		}
	}
	buf, err := src.page(id)
	if err != nil {
		return nil, err
	}
	p, err := DecodePage(buf)
	if err != nil {
		return nil, fmt.Errorf("page %d: %w", id, err)
	}
	if cached && p.Type != pageOverflow {
		c.verified[id] = buf
	}
	return p, nil
}

// readNode returns the node r points at: the dirty node when a
// transaction holds one, otherwise the committed page decoded from src.
// Reads never take a page over, so they leave the transaction clean.
func readNode(src pageSource, r ref) (*node, error) {
	if r.n != nil {
		return r.n, nil
	}
	p, err := readPage(src, r.id)
	if err != nil {
		return nil, err
	}
	switch p.Type {
	case pageLeaf:
		// An overflow value decodes as nil; value() resolves it lazily.
		return &node{leaf: true, keys: p.Keys, vals: p.Vals, ovfs: p.Ovf, vlens: p.VLen}, nil
	case pageBranch:
		n := &node{keys: p.Keys, kids: make([]ref, len(p.Kids))}
		for i, kid := range p.Kids {
			n.kids[i].id = kid
		}
		return n, nil
	default:
		return nil, fmt.Errorf("page %d: %w: expected a tree node, found page type %d", r.id, ErrCorrupt, p.Type)
	}
}

func readOverflow(src pageSource, id uint64, total uint32) ([]byte, error) {
	out := make([]byte, 0, total)
	// A well-formed chain has ceil(total/ovfChunk) pages; the +2 slack
	// tolerates an empty final chunk without admitting cycles.
	budget := int(total)/ovfChunk + 2
	for id != 0 {
		if budget--; budget < 0 {
			return nil, fmt.Errorf("%w: overflow chain at page %d longer than its declared length", ErrCorrupt, id)
		}
		p, err := readPage(src, id)
		if err != nil {
			return nil, err
		}
		if p.Type != pageOverflow {
			return nil, fmt.Errorf("page %d: %w: expected overflow page, found type %d", id, ErrCorrupt, p.Type)
		}
		out = append(out, p.Data...)
		id = p.Next
	}
	if len(out) != int(total) {
		return nil, fmt.Errorf("%w: overflow chain decodes to %d bytes, declared %d", ErrCorrupt, len(out), total)
	}
	return out, nil
}

// inlineLen is the in-page byte count of leaf value i: its length when
// it will be stored inline, 0 when it lives in an overflow chain.
func inlineLen(n *node, i int) int {
	if n.ovfs[i] != 0 || int(n.vlens[i]) > maxInline {
		return 0
	}
	return int(n.vlens[i])
}

// encodedSize is the full page size the node needs, header included.
func encodedSize(n *node) int {
	if n.leaf {
		sz := leafHdr
		for i := range n.keys {
			sz += leafCell + len(n.keys[i]) + inlineLen(n, i)
		}
		return sz
	}
	sz := branchHdr
	for i := range n.keys {
		sz += branchCell + len(n.keys[i])
	}
	return sz
}

// alloc reserves the next page id and a zeroed image for it at byte
// offset off of the transaction's output run.
func (tx *Tx) alloc() (id uint64, off int) {
	id, off = tx.npages, len(tx.out)
	tx.npages++
	tx.out = append(tx.out, make([]byte, PageSize)...)
	return id, off
}

// writeNode encodes a dirty node into a fresh page of the output run.
// The node's page id is reserved before its dirty children and its
// overflow chains are written, so a parent precedes what it points at.
// A leaf value still backed by the chain it was read from is written as
// a pointer to that chain; a new or replaced large value spills here,
// once, however often the transaction rewrote it.
func (tx *Tx) writeNode(n *node) uint64 {
	id, off := tx.alloc()
	if n.leaf {
		for i := range n.keys {
			if n.ovfs[i] == 0 && int(n.vlens[i]) > maxInline {
				n.ovfs[i] = tx.writeOverflow(n.vals[i])
			}
		}
	} else {
		for i, kid := range n.kids {
			if kid.n != nil {
				n.kids[i] = ref{id: tx.writeNode(kid.n)}
			}
		}
	}
	buf := tx.out[off : off+PageSize]
	if n.leaf {
		buf[0] = pageLeaf
		putU16(buf[1:3], len(n.keys))
		off := leafHdr
		for i := range n.keys {
			putU16(buf[off:off+2], len(n.keys[i]))
			putU32(buf[off+2:off+6], int(n.vlens[i]))
			putU64(buf[off+6:off+14], n.ovfs[i])
			off += leafCell
			off += copy(buf[off:], n.keys[i])
			if n.ovfs[i] == 0 {
				off += copy(buf[off:], n.vals[i])
			}
		}
	} else {
		buf[0] = pageBranch
		putU16(buf[1:3], len(n.keys))
		putU64(buf[3:11], n.kids[0].id)
		off := branchHdr
		for i := range n.keys {
			putU16(buf[off:off+2], len(n.keys[i]))
			putU64(buf[off+2:off+10], n.kids[i+1].id)
			off += branchCell
			off += copy(buf[off:], n.keys[i])
		}
	}
	sealPage(buf) // each page is sealed once: here or in writeOverflow
	tx.sealed++
	return id
}

// writePages lays out every dirty node reachable from the root — each
// encoded and sealed exactly once — and writes the run to f right after
// the pages already written. It returns the new root page id. Commit
// and Compact both write their pages through here.
func (tx *Tx) writePages(f file) (uint64, error) {
	root := tx.root.id
	if tx.root.n != nil {
		tx.out = slices.Grow(tx.out, dirtyPages(tx.root.n)*PageSize)
		root = tx.writeNode(tx.root.n)
	}
	return root, tx.flush(f)
}

// flush writes the sealed pages laid out so far to f in one call and
// empties the output run for reuse.
func (tx *Tx) flush(f file) error {
	countSeals(f, tx.sealed)
	tx.sealed = 0
	if len(tx.out) == 0 {
		return nil
	}
	first := tx.npages - uint64(len(tx.out)/PageSize)
	if _, err := f.WriteAt(tx.out, int64(first)*PageSize); err != nil {
		return fmt.Errorf("specdb: write pages %d-%d: %w", first, tx.npages-1, err)
	}
	tx.out = tx.out[:0]
	return nil
}

// flushSettled writes out and drops every dirty subtree left of the
// rightmost path. Compact puts keys in ascending order, so only that
// path can change again.
func (tx *Tx) flushSettled(f file) error {
	for n := tx.root.n; n != nil && !n.leaf; n = n.kids[len(n.kids)-1].n {
		for i, kid := range n.kids[:len(n.kids)-1] {
			if kid.n != nil {
				n.kids[i] = ref{id: tx.writeNode(kid.n)}
			}
		}
	}
	return tx.flush(f)
}

// dirtyPages counts the pages writeNode lays out for the dirty subtree
// at n, so a commit allocates its output run once.
func dirtyPages(n *node) int {
	k := 1
	for i := range n.ovfs { // leaf values writeNode will spill
		if n.ovfs[i] == 0 && int(n.vlens[i]) > maxInline {
			k += (int(n.vlens[i]) + ovfChunk - 1) / ovfChunk
		}
	}
	for _, kid := range n.kids {
		if kid.n != nil {
			k += dirtyPages(kid.n)
		}
	}
	return k
}

// writeOverflow writes a value as a chain of overflow pages, last chunk
// first so each page can point at its successor, and returns the head.
func (tx *Tx) writeOverflow(val []byte) uint64 {
	nchunks := (len(val) + ovfChunk - 1) / ovfChunk
	next := uint64(0)
	for c := nchunks - 1; c >= 0; c-- {
		chunk := val[c*ovfChunk : min(len(val), (c+1)*ovfChunk)]
		id, off := tx.alloc()
		buf := tx.out[off : off+PageSize]
		buf[0] = pageOverflow
		putU64(buf[1:9], next)
		putU32(buf[9:13], len(chunk))
		copy(buf[ovfHdr:], chunk)
		sealPage(buf)
		tx.sealed++
		next = id
	}
	return next
}

// childIndex picks the branch child to descend into for key: the last
// child whose separator range admits the key.
func childIndex(n *node, key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(key, n.keys[i]) < 0
	})
}

// leafIndex is the position of key in a leaf, or where it would go.
func leafIndex(n *node, key []byte) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(n.keys[i], key) >= 0
	})
	return i, i < len(n.keys) && bytes.Equal(n.keys[i], key)
}

// treeGet returns the value for key under root.
func treeGet(src pageSource, root ref, key []byte) ([]byte, bool, error) {
	for !root.empty() {
		n, err := readNode(src, root)
		if err != nil {
			return nil, false, err
		}
		if n.leaf {
			i, ok := leafIndex(n, key)
			if !ok {
				return nil, false, nil
			}
			v, err := n.value(src, i)
			return v, true, err
		}
		root = n.kids[childIndex(n, key)]
	}
	return nil, false, nil
}

// load takes the subtree at r over for writing: its committed page is
// read and decoded once, and the node stays dirty in memory until the
// commit writes it.
func (tx *Tx) load(r *ref) (n *node, err error) {
	n, err = readNode(tx.base, *r)
	r.n = n
	return n, err
}

// insertRec inserts or replaces key in the subtree at r. When the node
// overflows a page it splits: r keeps the left half, and the right half
// comes back with its separator key for the parent to link.
func (tx *Tx) insertRec(r *ref, key, val []byte) (right *node, sep []byte, replaced bool, err error) {
	n, err := tx.load(r)
	if err != nil {
		return nil, nil, false, err
	}
	if n.leaf {
		i, ok := leafIndex(n, key)
		if ok {
			n.vals[i] = val
			n.ovfs[i] = 0 // replaced: any old chain no longer matches
			n.vlens[i] = uint32(len(val))
			replaced = true
		} else {
			n.keys = slices.Insert(n.keys, i, key)
			n.vals = slices.Insert(n.vals, i, val)
			n.ovfs = slices.Insert(n.ovfs, i, 0)
			n.vlens = slices.Insert(n.vlens, i, uint32(len(val)))
		}
	} else {
		ci := childIndex(n, key)
		kr, ksep, rep, err := tx.insertRec(&n.kids[ci], key, val)
		if err != nil {
			return nil, nil, false, err
		}
		replaced = rep
		if kr != nil {
			n.keys = slices.Insert(n.keys, ci, ksep)
			n.kids = slices.Insert(n.kids, ci+1, ref{n: kr})
		}
	}
	if encodedSize(n) <= checksumOff {
		return nil, nil, replaced, nil
	}
	left, right, sep := splitNode(n)
	r.n = left
	return right, sep, replaced, nil
}

// splitNode divides an overfull node into two that each fit in a page.
// The split point byte-balances the halves; because MaxKeyLen+maxInline
// caps any single cell at under a third of a page, both halves of a
// node that overflowed by at most one cell are guaranteed to fit. For a
// leaf the separator is the right half's first key; for a branch the
// separator key is promoted and appears in neither half. The left
// half's slices are capped, so later inserts into either half never
// write into the other's elements.
func splitNode(n *node) (left, right *node, sep []byte) {
	total := encodedSize(n)
	if n.leaf {
		acc := leafHdr
		m := 0
		for m < len(n.keys)-1 {
			cell := leafCell + len(n.keys[m]) + inlineLen(n, m)
			if m > 0 && acc+cell > total/2 {
				break
			}
			acc += cell
			m++
		}
		left = &node{leaf: true, keys: n.keys[:m:m], vals: n.vals[:m:m], ovfs: n.ovfs[:m:m], vlens: n.vlens[:m:m]}
		right = &node{leaf: true, keys: n.keys[m:], vals: n.vals[m:], ovfs: n.ovfs[m:], vlens: n.vlens[m:]}
		return left, right, right.keys[0]
	}
	acc := branchHdr
	m := 0
	for m < len(n.keys)-1 {
		cell := branchCell + len(n.keys[m])
		if m > 0 && acc+cell > total/2 {
			break
		}
		acc += cell
		m++
	}
	sep = n.keys[m]
	left = &node{keys: n.keys[:m:m], kids: n.kids[: m+1 : m+1]}
	right = &node{keys: n.keys[m+1:], kids: n.kids[m+1:]}
	return left, right, sep
}

// deleteRec removes key from the subtree at r. empty reports that the
// subtree lost its last key and the parent must unlink it. A miss hands
// every page it took over back clean, so deleting an absent key writes
// nothing.
func (tx *Tx) deleteRec(r *ref, key []byte) (found, empty bool, err error) {
	clean := r.n == nil
	n, err := tx.load(r)
	if err != nil {
		return false, false, err
	}
	if n.leaf {
		i, ok := leafIndex(n, key)
		if ok {
			n.keys = slices.Delete(n.keys, i, i+1)
			n.vals = slices.Delete(n.vals, i, i+1)
			n.ovfs = slices.Delete(n.ovfs, i, i+1)
			n.vlens = slices.Delete(n.vlens, i, i+1)
			empty = len(n.keys) == 0
		}
		found = ok
	} else {
		ci := childIndex(n, key)
		var kidEmpty bool
		if found, kidEmpty, err = tx.deleteRec(&n.kids[ci], key); err != nil {
			return false, false, err
		}
		if kidEmpty {
			ki := max(ci-1, 0)
			n.kids = slices.Delete(n.kids, ci, ci+1)
			n.keys = slices.Delete(n.keys, ki, ki+1)
			if len(n.kids) == 1 {
				// Single-child branch: collapse to the child (dirty or
				// untouched — either way a valid subtree).
				*r = n.kids[0]
			}
		}
	}
	if !found && clean {
		r.n = nil
	}
	return found, empty, nil
}

// treeIterFrom walks keys in order starting at the first key >= lo
// (nil lo = from the start), calling fn until it returns false.
func treeIterFrom(src pageSource, root ref, lo []byte, fn func(key, val []byte) (bool, error)) error {
	if root.empty() {
		return nil
	}
	_, err := iterNode(src, root, lo, fn)
	return err
}

func iterNode(src pageSource, r ref, lo []byte, fn func(key, val []byte) (bool, error)) (bool, error) {
	n, err := readNode(src, r)
	if err != nil {
		return false, err
	}
	if n.leaf {
		start := 0
		if lo != nil {
			start, _ = leafIndex(n, lo)
		}
		for i := start; i < len(n.keys); i++ {
			v, err := n.value(src, i)
			if err != nil {
				return false, err
			}
			cont, err := fn(n.keys[i], v)
			if err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	}
	start := 0
	if lo != nil {
		start = childIndex(n, lo)
	}
	for ci := start; ci < len(n.kids); ci++ {
		bound := lo
		if ci > start {
			bound = nil // later subtrees are entirely >= lo
		}
		cont, err := iterNode(src, n.kids[ci], bound, fn)
		if err != nil || !cont {
			return false, err
		}
	}
	return true, nil
}

func putU16(b []byte, v int) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU32(b []byte, v int) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

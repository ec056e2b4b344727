// Store lifecycle: create/open, transactional copy-on-write updates
// with the dual-slot atomic meta commit, pinned historical snapshots
// (OpenAt), offline compaction, and structural verification.
package specdb

import (
	"cmp"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Store is an open spec store. One writer at a time (serialized by an
// internal mutex); any number of concurrent readers via Current(),
// each holding an immutable Snapshot.
type Store struct {
	path     string
	readOnly bool

	mu      sync.Mutex // serializes Update/Compact/Close and the WAL batch
	f       file
	wal     file   // sidecar write-ahead log; nil when opened without one
	walLen  int64  // trusted byte length of the log (the append offset)
	walSeq  uint64 // last WAL sequence number assigned
	retired []file // pre-compaction files kept open for live snapshots
	closed  bool

	// Group-commit state (guarded by mu). nextOrd tracks ordinal
	// allocation through the pending batch, ahead of the committed
	// meta.nextOrd until the next fold.
	nextOrd    uint64
	pend       []*WALRecord
	pendKey    map[string]*WALRecord
	pendBytes  int64
	pendGen    uint64
	pol        CommitPolicy
	flushTimer *time.Timer
	roPending  int        // read-only opens: overlaid WAL tail records
	look       *snapCache // page cache for batch dedup lookups
	work       *WorkCounts

	// Background compaction (opened with Options.CompactThreshold).
	threshold   float64
	compacting  atomic.Bool
	wg          sync.WaitGroup
	compactions atomic.Int64

	cur atomic.Pointer[Snapshot]
}

// Snapshot is an immutable view of one committed store state. It stays
// readable until the Store is closed, even across later commits and
// compactions. A read-only open of a store with an unfolded WAL tail
// carries the tail as an in-memory overlay, so readers see every durable
// record even though they cannot fold.
type Snapshot struct {
	f    file
	meta meta
	ov   *overlay

	// Dead-page accounting, computed lazily once per snapshot.
	liveOnce  sync.Once
	livePages uint64
	liveErr   error
}

// Seq is the commit sequence number this snapshot was published at.
func (sn *Snapshot) Seq() uint64 { return sn.meta.seq }

// Len is the number of keys in the snapshot, including any overlaid
// WAL tail.
func (sn *Snapshot) Len() int {
	if sn.ov != nil {
		return int(sn.ov.count)
	}
	return int(sn.meta.count)
}

func (sn *Snapshot) page(id uint64) ([]byte, error) {
	if id < 2 || id >= sn.meta.npages {
		return nil, fmt.Errorf("%w: page id %d out of range [2,%d)", ErrCorrupt, id, sn.meta.npages)
	}
	buf := make([]byte, PageSize)
	if _, err := sn.f.ReadAt(buf, int64(id)*PageSize); err != nil {
		return nil, fmt.Errorf("specdb: read page %d: %w", id, err)
	}
	return buf, nil
}

// Get returns the value stored under key.
func (sn *Snapshot) Get(key []byte) ([]byte, bool, error) {
	if sn.ov != nil {
		if rec, ok := sn.ov.recs[string(key)]; ok {
			if rec.Op == WALOpDelete {
				return nil, false, nil
			}
			return rec.Val, true, nil
		}
	}
	return treeGet(sn, ref{id: sn.meta.root}, key)
}

// Iterate walks all keys in order. fn returns false to stop early.
func (sn *Snapshot) Iterate(fn func(key, val []byte) (bool, error)) error {
	return sn.IterateFrom(nil, fn)
}

// IterateFrom walks keys >= lo in order. fn returns false to stop early.
func (sn *Snapshot) IterateFrom(lo []byte, fn func(key, val []byte) (bool, error)) error {
	if sn.ov != nil {
		return sn.ov.iterMerged(sn, lo, fn)
	}
	return treeIterFrom(sn, ref{id: sn.meta.root}, lo, fn)
}

// Create makes a new empty store at path, failing if the file exists.
func Create(path string) (*Store, error) {
	return CreateOptions(path, Options{})
}

// CreateOptions is Create with a commit policy and compaction tuning.
func CreateOptions(path string, opts Options) (*Store, error) {
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	opts.work = new(WorkCounts)
	err = initEmpty(metered(osFile{f: osf}, opts.work, true))
	osf.Close()
	var st *Store
	if err == nil {
		st, err = openPath(path, false, opts)
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return st, nil
}

// walPath is the sidecar write-ahead log next to a store file.
func walPath(path string) string { return path + ".wal" }

// openWAL opens the sidecar log: created on demand for read-write
// stores, optional for read-only ones (nil when absent).
func openWAL(path string, readOnly bool) (file, error) {
	if readOnly {
		osf, err := os.OpenFile(walPath(path), os.O_RDONLY, 0o644)
		if os.IsNotExist(err) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return osFile{f: osf}, nil
	}
	osf, err := os.OpenFile(walPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f: osf}, nil
}

// initEmpty writes the genesis state: a committed empty meta at slot 1
// (seq 1, so the first Update commits seq 2 into slot 0). The file is
// new, so slot 0 reads back as zeros — an invalid meta — without a
// write of its own.
func initEmpty(f file) error {
	if err := writeMeta(f, meta{seq: 1, root: 0, npages: 2, nextOrd: 1, count: 0}); err != nil {
		return err
	}
	return f.Sync()
}

// writeMeta seals m into its alternating slot (seq mod 2) of f.
func writeMeta(f file, m meta) error {
	countSeals(f, 1)
	_, err := f.WriteAt(encodeMeta(m), int64(m.seq%2)*PageSize)
	return err
}

// Open opens an existing store read-write, recovering to the newest
// fully committed snapshot and replaying any unfolded WAL tail into one
// recovery commit. A store written by a different format version is
// rejected with an error wrapping ErrVersion.
func Open(path string) (*Store, error) {
	return OpenOptions(path, Options{})
}

// OpenOptions is Open with a commit policy and compaction tuning.
func OpenOptions(path string, opts Options) (*Store, error) {
	return openPath(path, false, opts)
}

// OpenReadOnly opens an existing store for reading only. An unfolded
// WAL tail is layered over the committed snapshot as an in-memory
// overlay; the store file and log are never written.
func OpenReadOnly(path string) (*Store, error) {
	return openPath(path, true, Options{})
}

func openPath(path string, readOnly bool, opts Options) (*Store, error) {
	flag := os.O_RDWR
	if readOnly {
		flag = os.O_RDONLY
	}
	osf, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	wal, err := openWAL(path, readOnly)
	if err != nil {
		osf.Close()
		return nil, err
	}
	st, err := openStore(osFile{f: osf}, wal, path, readOnly, opts)
	if err != nil {
		osf.Close()
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	return st, nil
}

// openWith recovers a store over an injected file with no sidecar log —
// the crash harness's entry point for simulated post-crash page images.
func openWith(f file, path string, readOnly bool) (*Store, error) {
	return openStore(f, nil, path, readOnly, Options{})
}

// openStore recovers the newest valid meta slot, scans the WAL for
// records past meta.walSeq (the unfolded tail), and builds the Store: a
// read-write open replays the tail into one recovery commit and resets
// the log; a read-only open overlays the tail in memory. Factored over
// the file interface so the crash harness can open simulated post-crash
// images of both files.
func openStore(f file, wal file, path string, readOnly bool, opts Options) (*Store, error) {
	best, ok, skew := recoverMeta(f)
	if !ok {
		if skew != 0 {
			return nil, fmt.Errorf("%w: %s was written by store format %d, this build reads format %d; re-import the flat corpus with `seal specdb -import`",
				ErrVersion, path, skew, FormatVersion)
		}
		return nil, fmt.Errorf("%w: %s has no valid meta page", ErrNotStore, path)
	}
	w := cmp.Or(opts.work, new(WorkCounts))
	f = metered(f, w, true)
	st := &Store{
		path:      path,
		readOnly:  readOnly,
		f:         f,
		wal:       metered(wal, w, false),
		work:      w,
		walSeq:    best.walSeq,
		nextOrd:   best.nextOrd,
		pol:       opts.Commit.withDefaults(),
		threshold: opts.CompactThreshold,
	}
	st.cur.Store(&Snapshot{f: f, meta: best})
	if wal == nil {
		return st, nil
	}
	recs, validLen, err := scanWAL(st.wal)
	if err != nil {
		return nil, err
	}
	st.walLen = validLen
	// Records at or below meta.walSeq were folded by the commit that
	// stamped the meta; only the tail past it is outstanding.
	tail := recs[:0:0]
	for _, rec := range recs {
		if rec.Seq > best.walSeq {
			tail = append(tail, rec)
		}
	}
	if readOnly {
		if len(tail) > 0 {
			sn := st.cur.Load()
			ov, err := buildOverlay(sn, tail)
			if err != nil {
				return nil, err
			}
			last := tail[len(tail)-1]
			st.walSeq, st.nextOrd = last.Seq, last.NextOrd
			st.roPending = len(tail)
			st.cur.Store(&Snapshot{f: f, meta: best, ov: ov})
		}
		return st, nil
	}
	if len(tail) > 0 {
		if err := st.replayTail(tail); err != nil {
			return nil, fmt.Errorf("specdb: replay wal tail: %w", err)
		}
	}
	// Whether the tail was just folded or the log held only stale
	// records, everything on disk is now absorbed by the meta: reset.
	if err := st.resetWALLocked(); err != nil {
		return nil, err
	}
	return st, nil
}

// replayTail folds an unfolded WAL tail into one recovery commit,
// restoring ordinal allocation from the last record's NextOrd.
func (s *Store) replayTail(tail []*WALRecord) error {
	last := tail[len(tail)-1]
	s.walSeq, s.nextOrd = last.Seq, last.NextOrd
	return s.commitRecords(tail)
}

// recoverMeta picks the valid meta slot with the highest sequence
// number. skew reports a foreign format version if that is the only
// reason no slot validated.
func recoverMeta(f file) (best meta, ok bool, skew uint32) {
	for slot := uint64(0); slot < 2; slot++ {
		m, sk, valid := decodeMetaSlot(f, slot)
		if valid {
			if !ok || m.seq > best.seq {
				best = m
			}
			ok = true
		} else if sk != 0 {
			skew = sk
		}
	}
	if ok {
		skew = 0
	}
	return best, ok, skew
}

// OpenAt opens the store read-only pinned at an exact commit sequence
// number. Only the two resident meta slots are reachable: the requested
// seq must be the current commit or the immediately preceding one, or
// OpenAt fails with an error wrapping ErrSnapshotGone. This is the
// coordinator/worker contract — a shard job references (path, seq) and
// the worker refuses to run against a view the coordinator didn't pin.
func OpenAt(path string, seq uint64) (*Store, error) {
	osf, err := os.OpenFile(path, os.O_RDONLY, 0o644)
	if err != nil {
		return nil, err
	}
	f := osFile{f: osf}
	for slot := uint64(0); slot < 2; slot++ {
		m, _, valid := decodeMetaSlot(f, slot)
		if valid && m.seq == seq {
			st := &Store{path: path, readOnly: true, f: f, work: new(WorkCounts)}
			st.cur.Store(&Snapshot{f: f, meta: m})
			return st, nil
		}
	}
	best, ok, _ := recoverMeta(f)
	osf.Close()
	if !ok {
		return nil, fmt.Errorf("%w: %s has no valid meta page", ErrNotStore, path)
	}
	return nil, fmt.Errorf("%w: %s holds seq %d, requested seq %d", ErrSnapshotGone, path, best.seq, seq)
}

// Path returns the file path the store was opened at.
func (s *Store) Path() string { return s.path }

// Current returns the latest committed snapshot.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Close folds any pending WAL batch, waits for an in-flight background
// compaction, and releases the store file, the log, and any handles
// retired by Compact. Snapshots become invalid after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if !s.readOnly {
		err = s.foldLocked()
	}
	if s.flushTimer != nil {
		s.flushTimer.Stop()
		s.flushTimer = nil
	}
	s.closed = true
	s.mu.Unlock()
	// A background compaction observes closed under mu and bails; wait
	// for it before invalidating file handles.
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	for _, rf := range s.retired {
		if cerr := rf.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writableLocked reports why the store cannot take a write, if it
// cannot. Caller holds s.mu.
func (s *Store) writableLocked() error {
	if s.readOnly {
		return ErrReadOnly
	}
	if s.closed {
		return fmt.Errorf("specdb: store is closed")
	}
	return nil
}

// Tx is a copy-on-write write transaction. The first mutation to reach
// a committed node decodes it into a dirty in-memory node; every later
// operation in the transaction works on that node directly, so no page
// is read twice and none is built before the commit. Committed pages
// are never modified: the commit writes each reachable dirty node once,
// to a fresh page after the base snapshot's last one.
type Tx struct {
	base   *Snapshot
	root   ref
	npages uint64 // next free page id once the output run is laid out
	out    []byte // sealed page images not yet written: the ids just below npages
	sealed int64  // pages sealed into out

	nextOrd uint64
	count   uint64
	changed bool
}

// newTx starts a write transaction on top of snap.
func newTx(snap *Snapshot) *Tx {
	return &Tx{
		base:    snap,
		root:    ref{id: snap.meta.root},
		npages:  snap.meta.npages,
		nextOrd: snap.meta.nextOrd,
		count:   snap.meta.count,
	}
}

// snapCache wraps a snapshot for a read path that walks the same tree
// repeatedly (batched import dedup lookups walk the same committed pages
// once per spec), memoizing checksum-verified branch and leaf pages so
// the read and hash happen once. Verify reads through the bare Snapshot,
// so a structural walk always re-checks every checksum. Not safe for
// concurrent use; callers hold the store lock. The cache dies with the
// snapshot it wraps — a fold publishes a new snapshot and the store
// builds a fresh cache for it — so it holds at most the pages one fold
// window's lookups touched.
type snapCache struct {
	sn       *Snapshot
	verified map[uint64][]byte
}

func (c *snapCache) page(id uint64) ([]byte, error) { return c.sn.page(id) }

// lookupSourceLocked returns a page-caching view of the current
// snapshot, rebuilt whenever a fold publishes a new one. Caller holds
// s.mu.
func (s *Store) lookupSourceLocked() (pageSource, *Snapshot) {
	snap := s.cur.Load()
	if s.look == nil || s.look.sn != snap {
		s.look = &snapCache{sn: snap, verified: make(map[uint64][]byte)}
	}
	return s.look, snap
}

// Get reads through the transaction's uncommitted state.
func (tx *Tx) Get(key []byte) ([]byte, bool, error) {
	return treeGet(tx.base, tx.root, key)
}

// Iterate walks the transaction's uncommitted state in key order.
func (tx *Tx) Iterate(fn func(key, val []byte) (bool, error)) error {
	return treeIterFrom(tx.base, tx.root, nil, fn)
}

// IterateFrom walks uncommitted keys >= lo in order.
func (tx *Tx) IterateFrom(lo []byte, fn func(key, val []byte) (bool, error)) error {
	return treeIterFrom(tx.base, tx.root, lo, fn)
}

// Len is the number of keys, including uncommitted changes.
func (tx *Tx) Len() int { return int(tx.count) }

// TakeOrd hands out the next record ordinal and advances the counter.
func (tx *Tx) TakeOrd() uint64 {
	ord := tx.nextOrd
	tx.nextOrd++
	tx.changed = true
	return ord
}

// Put inserts or replaces key. It copies key and val, so the caller may
// reuse its buffers.
func (tx *Tx) Put(key, val []byte) error {
	kv := append(append(make([]byte, 0, len(key)+len(val)), key...), val...)
	return tx.put(kv[:len(key):len(key)], kv[len(key):])
}

// put is Put without the copy: the transaction keeps key and val until
// it commits. The fold and Compact pass slices that nothing rewrites.
func (tx *Tx) put(key, val []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	tx.changed = true
	if tx.root.empty() {
		tx.root.n = &node{leaf: true}
	}
	right, sep, replaced, err := tx.insertRec(&tx.root, key, val)
	if err != nil {
		return err
	}
	if right != nil {
		tx.root = ref{n: &node{keys: [][]byte{sep}, kids: []ref{tx.root, {n: right}}}}
	}
	if !replaced {
		tx.count++
	}
	return nil
}

// Delete removes key, reporting whether it was present.
func (tx *Tx) Delete(key []byte) (bool, error) {
	if tx.root.empty() {
		return false, nil
	}
	found, empty, err := tx.deleteRec(&tx.root, key)
	if err != nil || !found {
		return false, err
	}
	tx.changed = true
	if empty {
		tx.root = ref{}
	}
	tx.count--
	return true, nil
}

// Update runs fn in a write transaction and atomically commits its
// changes: new pages are written and synced, then the meta page is
// written to the alternating slot and synced. A crash at any point
// leaves the previous commit intact. If fn returns an error or makes
// no changes, the file is untouched.
func (s *Store) Update(fn func(tx *Tx) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	// Fold any pending WAL batch first so the transaction builds on
	// every operation that already went through the log.
	if err := s.foldLocked(); err != nil {
		return err
	}
	tx := newTx(s.cur.Load())
	if err := fn(tx); err != nil {
		return err
	}
	if !tx.changed {
		return nil
	}
	if err := s.commit(tx); err != nil {
		return err
	}
	s.nextOrd = tx.nextOrd
	return nil
}

// commitRecords folds WAL records into one commit on top of the current
// snapshot, stamping the store's ordinal counter and WAL sequence.
func (s *Store) commitRecords(recs []*WALRecord) error {
	tx := newTx(s.cur.Load())
	for _, rec := range recs {
		var err error
		if rec.Op == WALOpDelete {
			_, err = tx.Delete(rec.Key)
		} else {
			err = tx.put(rec.Key, rec.Val)
		}
		if err != nil {
			return err
		}
	}
	tx.nextOrd = s.nextOrd
	return s.commit(tx)
}

func (s *Store) commit(tx *Tx) error {
	root, err := tx.writePages(s.f)
	if err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("specdb: sync pages: %w", err)
	}
	m := meta{seq: tx.base.meta.seq + 1, root: root, npages: tx.npages, nextOrd: tx.nextOrd, count: tx.count, walSeq: s.walSeq}
	if err := writeMeta(s.f, m); err != nil {
		return fmt.Errorf("specdb: write meta: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("specdb: sync meta: %w", err)
	}
	s.cur.Store(&Snapshot{f: s.f, meta: m})
	return nil
}

// CompactStats reports what Compact reclaimed.
type CompactStats struct {
	Seq         uint64 // sequence number of the compacted commit
	Keys        uint64
	PagesBefore uint64
	PagesAfter  uint64
}

// compactFlushKeys is how many keys Compact puts between flushSettled calls.
const compactFlushKeys = 1024

// Compact rewrites the store into a fresh file in key order, dropping
// every unreachable (superseded copy-on-write) page, and atomically
// renames it over the store path. The sequence number advances by one.
// Snapshots taken before Compact stay readable — the old file handle is
// retired, not closed, until the Store itself closes.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return CompactStats{}, err
	}
	// Fold any pending WAL batch so the rewrite captures it and the log
	// is empty when the new file (stamped with the folded walSeq) lands.
	if err := s.foldLocked(); err != nil {
		return CompactStats{}, err
	}
	snap := s.cur.Load()
	tmp := s.path + ".compact"
	os.Remove(tmp)
	osf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return CompactStats{}, err
	}
	nf := metered(osFile{f: osf}, s.work, true)
	fail := func(err error) (CompactStats, error) {
		nf.Close()
		os.Remove(tmp)
		return CompactStats{}, err
	}
	// The rewrite is one transaction over an empty base in the new file
	// that seals every page once, like any commit, and writes settled
	// subtrees as it goes. It may keep the key and value slices: Iterate
	// hands out slices of page images it read fresh.
	tx := newTx(&Snapshot{f: nf, meta: meta{npages: 2, nextOrd: snap.meta.nextOrd}})
	err = snap.Iterate(func(key, val []byte) (bool, error) {
		err := tx.put(key, val)
		if err == nil && tx.count%compactFlushKeys == 0 {
			err = tx.flushSettled(nf)
		}
		return err == nil, err
	})
	if err != nil {
		return fail(err)
	}
	if tx.count != snap.meta.count {
		return fail(fmt.Errorf("%w: compaction saw %d keys, meta declares %d", ErrCorrupt, tx.count, snap.meta.count))
	}
	root, err := tx.writePages(nf)
	if err != nil {
		return fail(err)
	}
	// The other meta slot stays a never-written (zero, invalid) page.
	m := meta{seq: snap.meta.seq + 1, root: root, npages: tx.npages, nextOrd: tx.nextOrd, count: tx.count, walSeq: s.walSeq}
	if err := writeMeta(nf, m); err != nil {
		return fail(err)
	}
	if err := nf.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fail(err)
	}
	s.retired = append(s.retired, s.f)
	s.f = nf
	s.cur.Store(&Snapshot{f: nf, meta: m})
	return CompactStats{Seq: m.seq, Keys: m.count, PagesBefore: snap.meta.npages, PagesAfter: m.npages}, nil
}

// VerifyStats summarizes a successful structural walk.
type VerifyStats struct {
	Seq           uint64
	Keys          uint64
	TreePages     uint64
	OverflowPages uint64
	FilePages     uint64 // allocated pages per the meta, live or not
}

// Verify walks every page reachable from the current root, checking
// checksums, structure, key order, and the meta key count.
func (s *Store) Verify() (VerifyStats, error) {
	snap := s.Current()
	vs := VerifyStats{Seq: snap.meta.seq, FilePages: snap.meta.npages}
	if snap.meta.root != 0 {
		if err := verifyNode(snap, snap.meta.root, &vs); err != nil {
			return vs, err
		}
	}
	if vs.Keys != snap.meta.count {
		return vs, fmt.Errorf("%w: tree holds %d keys, meta declares %d", ErrCorrupt, vs.Keys, snap.meta.count)
	}
	var prev []byte
	first := true
	err := snap.Iterate(func(key, _ []byte) (bool, error) {
		if !first && string(prev) >= string(key) {
			return false, fmt.Errorf("%w: global key order violated at %q", ErrCorrupt, key)
		}
		prev = append(prev[:0], key...)
		first = false
		return true, nil
	})
	return vs, err
}

func verifyNode(sn *Snapshot, id uint64, vs *VerifyStats) error {
	p, err := readPage(sn, id)
	if err != nil {
		return err
	}
	switch p.Type {
	case pageLeaf:
		vs.TreePages++
		vs.Keys += uint64(len(p.Keys))
		for i, ovf := range p.Ovf {
			if ovf == 0 {
				continue
			}
			chunks := uint64(int(p.VLen[i])+ovfChunk-1) / uint64(ovfChunk)
			if _, err := readOverflow(sn, ovf, p.VLen[i]); err != nil {
				return err
			}
			vs.OverflowPages += chunks
		}
		return nil
	case pageBranch:
		vs.TreePages++
		for _, kid := range p.Kids {
			if err := verifyNode(sn, kid, vs); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("page %d: %w: expected a tree node, found page type %d", id, ErrCorrupt, p.Type)
	}
}

// StoreStats is a cheap summary of the open store, plus the write-path
// liveness signals: how deep the unfolded WAL batch is and how much of
// the file is copy-on-write garbage a compaction would reclaim.
type StoreStats struct {
	Path      string `json:"path"`
	Seq       uint64 `json:"seq"`
	Keys      uint64 `json:"keys"`
	NextOrd   uint64 `json:"next_ord"`
	Pages     uint64 `json:"pages"`
	FileBytes int64  `json:"file_bytes"`

	// WALSeq is the last WAL sequence number assigned;
	// WALRecordsPending counts records appended (or, read-only,
	// overlaid) but not yet folded into a B-tree commit.
	WALSeq            uint64 `json:"wal_seq"`
	WALRecordsPending int    `json:"wal_records_pending"`
	WALBytes          int64  `json:"wal_bytes"`

	// DeadPageRatio is the fraction of allocated data pages superseded
	// by copy-on-write commits; Compactions counts background
	// compactions this handle has completed.
	DeadPageRatio float64 `json:"dead_page_ratio"`
	Compactions   int64   `json:"compactions"`

	// WorkCounts is the write work this handle has done since it was
	// created or opened.
	WorkCounts
}

// WorkCounts tallies the write work of one store handle. The counts are
// deterministic for a given sequence of operations, so they gate write
// amplification where wall-clock ratios would depend on the disk. They
// are updated under the store's writer lock; read them through Stats.
type WorkCounts struct {
	// PagesSealed counts page images checksummed for writing: tree,
	// overflow and meta pages.
	PagesSealed int64 `json:"pages_sealed"`
	// PageBytesWritten counts page bytes handed to WriteAt on the store
	// file (the WAL is not a page file and is not counted).
	PageBytesWritten int64 `json:"page_bytes_written"`
	// Fsyncs counts Sync calls on the store file and the WAL.
	Fsyncs int64 `json:"fsyncs"`
}

// countSeals adds k sealed pages to f's counts when f is a metered
// store file.
func countSeals(f file, k int64) {
	if m, ok := f.(meteredFile); ok {
		m.w.PagesSealed += k
	}
}

// meteredFile counts the work done through a store file or its WAL:
// every Sync, and the bytes written when it is the page file.
type meteredFile struct {
	file
	w     *WorkCounts
	pages bool
}

// metered wraps f (nil stays nil) so its writes and syncs land in w.
func metered(f file, w *WorkCounts, pages bool) file {
	if f == nil {
		return nil
	}
	return meteredFile{file: f, w: w, pages: pages}
}

func (m meteredFile) WriteAt(p []byte, off int64) (int, error) {
	if m.pages {
		m.w.PageBytesWritten += int64(len(p))
	}
	return m.file.WriteAt(p, off)
}

func (m meteredFile) Sync() error {
	m.w.Fsyncs++
	return m.file.Sync()
}

// Stats reports the current snapshot's header fields, the file size,
// and the WAL / dead-page liveness signals.
func (s *Store) Stats() StoreStats {
	snap := s.Current()
	sz, _ := s.f.Size()
	s.mu.Lock()
	pending := len(s.pend)
	if s.readOnly {
		pending = s.roPending
	}
	walSeq, walBytes, work := s.walSeq, s.walLen, *s.work
	s.mu.Unlock()
	// A structurally broken snapshot surfaces through Verify; here the
	// ratio simply reads 0.
	ratio, _ := snap.DeadPageRatio()
	return StoreStats{
		Path:              s.path,
		Seq:               snap.meta.seq,
		Keys:              snap.meta.count,
		NextOrd:           snap.meta.nextOrd,
		Pages:             snap.meta.npages,
		FileBytes:         sz,
		WALSeq:            walSeq,
		WALRecordsPending: pending,
		WALBytes:          walBytes,
		DeadPageRatio:     ratio,
		Compactions:       s.compactions.Load(),
		WorkCounts:        work,
	}
}

// Group-commit write-ahead log. Every mutation first lands as an
// appended, checksummed record in a sidecar WAL file (<store>.wal);
// a commit policy — N records, B bytes, or T interval, whichever
// trips first — folds the accumulated batch into ONE copy-on-write
// B-tree commit, so bulk ingestion pays O(batch) page writes and
// fsyncs instead of O(records). The fold stamps the meta page with
// the WAL sequence number it absorbed (meta.walSeq) and truncates
// the log; records past meta.walSeq are the unfolded tail, which a
// read-write open replays into one recovery commit and a read-only
// open layers over the committed snapshot as an in-memory overlay.
//
// WAL record layout (little-endian):
//
//	blen(4) | body | fnv64a(body)(8)
//	body: ver(1) | op(1) | seq(8) | nextord(8) | klen(4) | key | val
//
// A record that fails length or checksum validation marks the end of
// the log (a torn append), exactly like a torn page write: everything
// before it is trusted, everything after is discarded. A record whose
// checksum validates but whose version byte is foreign is a hard
// ErrVersion — never skipped, never decoded on a best-effort basis.
package specdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

const (
	// WALVersion is the record format this build reads and writes.
	WALVersion = 1

	// WALOpPut and WALOpDelete are the two record operations.
	WALOpPut    = 1
	WALOpDelete = 2

	// walBodyHdr is the fixed body prefix: ver(1) + op(1) + seq(8) +
	// nextord(8) + klen(4).
	walBodyHdr = 22
	// walFrame is the framing overhead around a body: length prefix
	// plus trailing checksum.
	walFrame = 12
	// walMaxBody bounds a record body so a corrupt length prefix cannot
	// drive a huge allocation.
	walMaxBody = 1 << 28

	// DefaultCommitRecords and DefaultCommitBytes are the commit policy
	// defaults: fold after 256 pending records or 1 MiB of pending
	// payload, whichever comes first.
	DefaultCommitRecords = 256
	DefaultCommitBytes   = 1 << 20
)

// CommitPolicy controls when the pending WAL batch folds into one
// B-tree commit. Zero-valued fields take the defaults; Interval 0
// means no time-based folding.
type CommitPolicy struct {
	Records  int           // fold after this many pending records
	Bytes    int64         // fold after this many pending payload bytes
	Interval time.Duration // fold this long after the first pending record
}

func (p CommitPolicy) withDefaults() CommitPolicy {
	if p.Records <= 0 {
		p.Records = DefaultCommitRecords
	}
	if p.Bytes <= 0 {
		p.Bytes = DefaultCommitBytes
	}
	return p
}

// Options tunes a store opened with OpenOptions or CreateOptions.
type Options struct {
	// Commit is the group-commit fold policy.
	Commit CommitPolicy
	// CompactThreshold, when in (0, 1], triggers a background compaction
	// whenever a fold leaves the dead-page ratio (superseded
	// copy-on-write pages over allocated data pages) at or above it.
	// 0 disables automatic compaction.
	CompactThreshold float64

	// work carries the genesis write CreateOptions counted into the new
	// handle's counts; nil starts them at zero.
	work *WorkCounts
}

// WALRecord is one decoded write-ahead-log record. Seq is the
// monotonically increasing WAL sequence number; NextOrd is the store's
// next-ordinal counter after this operation, so replay restores ordinal
// allocation exactly.
type WALRecord struct {
	Op      byte
	Seq     uint64
	NextOrd uint64
	Key     []byte
	Val     []byte
}

// EncodeWALRecord frames one record: length prefix, body, checksum.
func EncodeWALRecord(r *WALRecord) []byte {
	blen := walBodyHdr + len(r.Key) + len(r.Val)
	buf := make([]byte, 4+blen+8)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(blen))
	body := buf[4 : 4+blen]
	body[0] = WALVersion
	body[1] = r.Op
	binary.LittleEndian.PutUint64(body[2:10], r.Seq)
	binary.LittleEndian.PutUint64(body[10:18], r.NextOrd)
	binary.LittleEndian.PutUint32(body[18:22], uint32(len(r.Key)))
	copy(body[walBodyHdr:], r.Key)
	copy(body[walBodyHdr+len(r.Key):], r.Val)
	binary.LittleEndian.PutUint64(buf[4+blen:], checksum(body))
	return buf
}

// DecodeWALRecord decodes the record at the head of buf, returning the
// number of bytes it consumed. It never panics on arbitrary input.
// Truncated or checksum-failing input wraps ErrCorrupt (the normal
// torn-tail signal); a checksum-valid record written by a different WAL
// format wraps ErrVersion. Key and Val alias buf.
func DecodeWALRecord(buf []byte) (*WALRecord, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: wal record shorter than its length prefix", ErrCorrupt)
	}
	blen := int(binary.LittleEndian.Uint32(buf[0:4]))
	if blen < walBodyHdr || blen > walMaxBody {
		return nil, 0, fmt.Errorf("%w: wal record body length %d out of range", ErrCorrupt, blen)
	}
	if len(buf) < 4+blen+8 {
		return nil, 0, fmt.Errorf("%w: wal record truncated (%d of %d bytes)", ErrCorrupt, len(buf), 4+blen+8)
	}
	body := buf[4 : 4+blen]
	want := binary.LittleEndian.Uint64(buf[4+blen : 4+blen+8])
	if got := checksum(body); got != want {
		return nil, 0, fmt.Errorf("%w: wal record checksum mismatch (stored %#x, computed %#x)", ErrCorrupt, want, got)
	}
	if body[0] != WALVersion {
		return nil, 0, fmt.Errorf("%w: wal record version %d, this build reads version %d", ErrVersion, body[0], WALVersion)
	}
	r := &WALRecord{
		Op:      body[1],
		Seq:     binary.LittleEndian.Uint64(body[2:10]),
		NextOrd: binary.LittleEndian.Uint64(body[10:18]),
	}
	klen := int(binary.LittleEndian.Uint32(body[18:22]))
	if klen == 0 || klen > MaxKeyLen || walBodyHdr+klen > blen {
		return nil, 0, fmt.Errorf("%w: wal record key length %d out of range", ErrCorrupt, klen)
	}
	r.Key = body[walBodyHdr : walBodyHdr+klen]
	r.Val = body[walBodyHdr+klen : blen]
	switch r.Op {
	case WALOpPut:
	case WALOpDelete:
		if len(r.Val) != 0 {
			return nil, 0, fmt.Errorf("%w: wal delete record carries a %d-byte value", ErrCorrupt, len(r.Val))
		}
	default:
		return nil, 0, fmt.Errorf("%w: unknown wal op %d", ErrCorrupt, r.Op)
	}
	return r, 4 + blen + 8, nil
}

// scanWAL reads every valid record from the log. The scan stops at the
// first torn, corrupt, or sequence-regressing record — that is the end
// of the trustworthy log, exactly like recovering past a torn page —
// and validLen is the byte length of the trusted prefix. A record with
// foreign WAL version is a hard error.
func scanWAL(f file) (recs []*WALRecord, validLen int64, err error) {
	size, err := f.Size()
	if err != nil {
		return nil, 0, fmt.Errorf("specdb: wal size: %w", err)
	}
	if size == 0 {
		return nil, 0, nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, 0, fmt.Errorf("specdb: read wal: %w", err)
	}
	off := 0
	var lastSeq uint64
	for off < len(buf) {
		r, n, derr := DecodeWALRecord(buf[off:])
		if derr != nil {
			if errors.Is(derr, ErrVersion) {
				return nil, 0, derr
			}
			break // torn tail: trust everything before it
		}
		if r.Seq <= lastSeq && lastSeq != 0 {
			break // sequence regressed: stale bytes past a torn truncate
		}
		lastSeq = r.Seq
		recs = append(recs, r)
		off += n
	}
	return recs, int64(off), nil
}

// appendRecordLocked assigns the next WAL sequence number to one
// operation, appends it to the log, stages it in the pending batch, and
// folds if the commit policy trips. Caller holds s.mu and has already
// advanced s.nextOrd for any ordinal the operation allocated.
func (s *Store) appendRecordLocked(op byte, key, val []byte) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	rec := &WALRecord{Op: op, Seq: s.walSeq + 1, NextOrd: s.nextOrd, Key: key, Val: val}
	buf := EncodeWALRecord(rec)
	// The staged record keeps its own copy of key and val: the slices
	// of the encoded frame.
	body := buf[4 : len(buf)-8]
	rec.Key, rec.Val = body[walBodyHdr:walBodyHdr+len(key)], body[walBodyHdr+len(key):]
	if s.wal != nil {
		if _, err := s.wal.WriteAt(buf, s.walLen); err != nil {
			return fmt.Errorf("specdb: append wal record: %w", err)
		}
		s.walLen += int64(len(buf))
	}
	s.walSeq = rec.Seq
	s.stagePendingLocked(rec)
	if len(s.pend) >= s.pol.Records || s.pendBytes >= s.pol.Bytes {
		return s.foldLocked()
	}
	if s.pol.Interval > 0 && len(s.pend) == 1 {
		gen := s.pendGen
		s.flushTimer = time.AfterFunc(s.pol.Interval, func() { s.intervalFold(gen) })
	}
	return nil
}

// stagePendingLocked adds one record to the in-memory pending batch.
func (s *Store) stagePendingLocked(rec *WALRecord) {
	s.pend = append(s.pend, rec)
	if s.pendKey == nil {
		s.pendKey = make(map[string]*WALRecord)
	}
	s.pendKey[string(rec.Key)] = rec
	s.pendBytes += int64(walFrame + walBodyHdr + len(rec.Key) + len(rec.Val))
}

// pendingGet resolves key through the pending batch: the last staged
// record for a key shadows the committed tree. hit reports whether the
// batch says anything about the key at all.
func (s *Store) pendingGet(key []byte) (val []byte, present, hit bool) {
	rec, ok := s.pendKey[string(key)]
	if !ok {
		return nil, false, false
	}
	if rec.Op == WALOpDelete {
		return nil, false, true
	}
	return rec.Val, true, true
}

// intervalFold is the commit-interval timer body: fold whatever is
// still pending, unless a policy- or flush-triggered fold already beat
// it to the batch (the generation moved).
func (s *Store) intervalFold(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.pendGen != gen || len(s.pend) == 0 {
		return
	}
	// A failed fold leaves the batch staged and the WAL intact; the
	// next append or explicit Flush retries and surfaces the error.
	_ = s.foldLocked()
}

// foldLocked folds the pending batch into one copy-on-write B-tree
// commit and resets the log: sync the WAL tail, replay the batch into a
// transaction, commit it (stamping meta.walSeq), truncate the WAL. On
// failure the batch stays staged and the WAL keeps its records, so the
// store state is exactly "crashed before the fold" and a retry or
// reopen recovers. Caller holds s.mu.
func (s *Store) foldLocked() error {
	if s.flushTimer != nil {
		s.flushTimer.Stop()
		s.flushTimer = nil
	}
	if len(s.pend) == 0 {
		return s.resetWALLocked()
	}
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("specdb: sync wal: %w", err)
		}
	}
	if err := s.commitRecords(s.pend); err != nil {
		return err
	}
	// The batch is committed: drop it and truncate the log.
	if err := s.discardLocked(); err != nil {
		return err
	}
	s.maybeCompactLocked()
	return nil
}

// resetWALLocked truncates the log once every record in it is folded
// (meta.walSeq has passed them). Leaving stale records behind on error
// is harmless — recovery ignores sequences at or below meta.walSeq —
// but the error still surfaces as the I/O problem it is.
func (s *Store) resetWALLocked() error {
	if s.wal == nil || s.walLen == 0 {
		return nil
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("specdb: truncate wal: %w", err)
	}
	s.walLen = 0
	return nil
}

// discardLocked drops the unfolded pending batch: truncate the WAL tail
// and forget the staged records. Folds that already landed stay landed.
func (s *Store) discardLocked() error {
	if s.flushTimer != nil {
		s.flushTimer.Stop()
		s.flushTimer = nil
	}
	s.pend = nil
	s.pendKey = make(map[string]*WALRecord)
	s.pendBytes = 0
	s.pendGen++
	return s.resetWALLocked()
}

// maybeCompactLocked kicks off a background compaction when the current
// snapshot's dead-page ratio reaches the configured threshold. The
// goroutine takes the writer lock itself; snapshot readers (Current,
// OpenAt) are unaffected because compaction retires the old file handle
// without closing it.
func (s *Store) maybeCompactLocked() {
	if s.threshold <= 0 || s.readOnly || s.closed {
		return
	}
	snap := s.cur.Load()
	if snap.meta.npages <= 2 {
		return
	}
	ratio, err := snap.DeadPageRatio()
	if err != nil || ratio < s.threshold {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // one background compaction at a time
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// A concurrent Close wins the race cleanly: Compact then
		// reports the store closed and the goroutine exits.
		if _, err := s.Compact(); err == nil {
			s.compactions.Add(1)
		}
		s.compacting.Store(false)
		// Folds that tripped the threshold while this compaction ran
		// were dropped by the CAS above; re-check so the trigger is
		// self-sustaining until the ratio falls below the threshold.
		s.mu.Lock()
		if !s.closed {
			s.maybeCompactLocked()
		}
		s.mu.Unlock()
	}()
}

// DeadPageRatio is the fraction of allocated data pages unreachable
// from this snapshot's root — garbage left behind by copy-on-write
// commits, reclaimable by Compact. Computed once per snapshot by a
// structural walk and cached (snapshots are immutable).
func (sn *Snapshot) DeadPageRatio() (float64, error) {
	sn.liveOnce.Do(func() {
		var vs VerifyStats
		if sn.meta.root != 0 {
			sn.liveErr = verifyNode(sn, sn.meta.root, &vs)
		}
		sn.livePages = vs.TreePages + vs.OverflowPages
	})
	if sn.liveErr != nil {
		return 0, sn.liveErr
	}
	alloc := sn.meta.npages - 2
	if alloc == 0 {
		return 0, nil
	}
	return float64(alloc-sn.livePages) / float64(alloc), nil
}

// overlay layers an unfolded WAL tail over a committed snapshot for
// read-only opens, which see every durable record but cannot fold.
type overlay struct {
	recs  map[string]*WALRecord // latest record per key; delete = tombstone
	keys  []string              // sorted keys of recs
	count uint64                // key count of the overlaid view
}

// buildOverlay reduces a WAL tail to its per-key latest records and
// computes the resulting key count against the base snapshot.
func buildOverlay(sn *Snapshot, tail []*WALRecord) (*overlay, error) {
	ov := &overlay{recs: make(map[string]*WALRecord)}
	count := sn.meta.count
	for _, rec := range tail {
		k := string(rec.Key)
		var present bool
		if prev, ok := ov.recs[k]; ok {
			present = prev.Op == WALOpPut
		} else {
			_, found, err := treeGet(sn, ref{id: sn.meta.root}, rec.Key)
			if err != nil {
				return nil, err
			}
			present = found
		}
		if rec.Op == WALOpPut && !present {
			count++
		}
		if rec.Op == WALOpDelete && present {
			count--
		}
		ov.recs[k] = rec
	}
	ov.keys = make([]string, 0, len(ov.recs))
	for k := range ov.recs {
		ov.keys = append(ov.keys, k)
	}
	sort.Strings(ov.keys)
	ov.count = count
	return ov, nil
}

// iterMerged walks the overlaid view in key order: tree keys and
// overlay keys interleave, an overlay record shadows its tree key
// (tombstones hide it), and overlay keys past the end of the tree drain
// afterwards.
func (ov *overlay) iterMerged(sn *Snapshot, lo []byte, fn func(key, val []byte) (bool, error)) error {
	idx := 0
	if lo != nil {
		idx = sort.SearchStrings(ov.keys, string(lo))
	}
	// emit yields overlay puts with keys below upto (nil = all).
	emit := func(upto []byte) (bool, error) {
		for idx < len(ov.keys) && (upto == nil || ov.keys[idx] < string(upto)) {
			k := ov.keys[idx]
			rec := ov.recs[k]
			idx++
			if rec.Op == WALOpDelete {
				continue
			}
			if cont, err := fn([]byte(k), rec.Val); err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	}
	stopped := false
	err := treeIterFrom(sn, ref{id: sn.meta.root}, lo, func(key, val []byte) (bool, error) {
		cont, err := emit(key)
		if err != nil || !cont {
			stopped = true
			return false, err
		}
		if idx < len(ov.keys) && ov.keys[idx] == string(key) {
			rec := ov.recs[ov.keys[idx]]
			idx++
			if rec.Op == WALOpDelete {
				return true, nil
			}
			val = rec.Val
		}
		cont, err = fn(key, val)
		if err != nil || !cont {
			stopped = true
		}
		return cont, err
	})
	if err != nil || stopped {
		return err
	}
	_, err = emit(nil)
	return err
}

// Batch is a group-commit handle: operations append to the WAL
// immediately and stage in memory; the B-tree commit happens when the
// commit policy trips or Flush is called. All methods serialize on the
// store's writer lock, so concurrent batches interleave safely — they
// share one pending batch and one fold.
type Batch struct{ s *Store }

// Batch returns a group-commit handle on the store.
func (s *Store) Batch() *Batch { return &Batch{s: s} }

// Flush folds everything pending into one durable B-tree commit. A
// no-op when nothing is pending.
func (b *Batch) Flush() error {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	if err := b.s.writableLocked(); err != nil {
		return err
	}
	return b.s.foldLocked()
}

// Discard drops every operation still pending (not yet folded).
// Operations a policy-triggered fold already committed stay committed —
// the same durability a sequence of individual upserts would have had.
func (b *Batch) Discard() error {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	if err := b.s.writableLocked(); err != nil {
		return err
	}
	return b.s.discardLocked()
}

// Pending reports how many records await the next fold.
func (b *Batch) Pending() int {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return len(b.s.pend)
}

// put appends one raw put through the WAL (spec-level wrappers add
// ordinal bookkeeping on top).
func (b *Batch) put(key, val []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return b.s.appendRecordLocked(WALOpPut, key, val)
}

// delete appends one raw delete through the WAL.
func (b *Batch) delete(key []byte) error {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return b.s.appendRecordLocked(WALOpDelete, key, nil)
}

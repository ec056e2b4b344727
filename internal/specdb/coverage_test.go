package specdb

// Edge-path suite: multi-level trees (branch splits and cascading
// deletes down to an empty root), decoder rejection of structurally
// hostile pages, commit-time I/O failures, and the remaining spec-layer
// error branches. These paths are exactly where storage engines rot,
// so the package holds a 90% coverage floor in CI.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"seal/internal/spec"
)

// TestDeepTreeSplitAndDrain forces branch splits with page-filling keys,
// then deletes every key in scrambled order: empty leaves unlink, single
// child branches collapse, and the tree drains to an empty root.
func TestDeepTreeSplitAndDrain(t *testing.T) {
	st := tmpStore(t)
	const n = 400
	pad := strings.Repeat("k", 700)
	keyAt := func(i int) string { return fmt.Sprintf("%s-%05d", pad, i) }

	err := st.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if err := tx.Put([]byte(keyAt((i*311)%n)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if vs.Keys != n {
		t.Fatalf("verify saw %d keys, want %d", vs.Keys, n)
	}
	// 700-byte keys fit ~5 per page, so 400 keys need a 3-level tree:
	// well past one root split, deep enough to split branches too.
	if vs.TreePages < 80 {
		t.Fatalf("tree suspiciously shallow: %d pages for %d page-filling keys", vs.TreePages, n)
	}

	rng := rand.New(rand.NewSource(5))
	order := rng.Perm(n)
	for batch := 0; batch < n; batch += 37 {
		err := st.Update(func(tx *Tx) error {
			for _, i := range order[batch:min(batch+37, n)] {
				ok, err := tx.Delete([]byte(keyAt(i)))
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("key %d vanished before delete", i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Verify(); err != nil {
			t.Fatalf("verify after batch %d: %v", batch, err)
		}
	}
	if got := st.Current().Len(); got != 0 {
		t.Fatalf("drained store still holds %d keys", got)
	}
	if v, ok, err := st.Current().Get([]byte(keyAt(3))); ok || err != nil {
		t.Fatalf("Get on drained store = %q %v %v", v, ok, err)
	}
	// And the drained (root=0) tree accepts new keys again.
	mustPut(t, st, "fresh", "start")
	if got := st.Current().Len(); got != 1 {
		t.Fatalf("refill Len = %d", got)
	}
}

// TestDeleteMissInDeepTree exercises the not-found return through branch
// nodes: the tree must not be rewritten at all.
func TestDeleteMissInDeepTree(t *testing.T) {
	st := tmpStore(t)
	pad := strings.Repeat("p", 700)
	err := st.Update(func(tx *Tx) error {
		for i := 0; i < 40; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("%s-%03d", pad, i*2)), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := st.Current().Seq()
	err = st.Update(func(tx *Tx) error {
		ok, err := tx.Delete([]byte(pad + "-007")) // between existing keys
		if ok || err != nil {
			return fmt.Errorf("phantom delete: %v %v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Current().Seq() != seq {
		t.Fatal("a missed delete committed")
	}
}

// TestTxReadYourWrites pins the transaction-local view: Get/Iterate/
// IterateFrom inside Update see staged mutations before commit.
func TestTxReadYourWrites(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "a", "1", "b", "2", "c", "3")
	err := st.Update(func(tx *Tx) error {
		if err := tx.Put([]byte("b"), []byte("staged")); err != nil {
			return err
		}
		if _, err := tx.Delete([]byte("c")); err != nil {
			return err
		}
		v, ok, err := tx.Get([]byte("b"))
		if err != nil || !ok || string(v) != "staged" {
			return fmt.Errorf("tx.Get(b) = %q %v %v", v, ok, err)
		}
		var all []string
		if err := tx.Iterate(func(k, v []byte) (bool, error) {
			all = append(all, string(k)+"="+string(v))
			return true, nil
		}); err != nil {
			return err
		}
		if strings.Join(all, ",") != "a=1,b=staged" {
			return fmt.Errorf("tx.Iterate = %v", all)
		}
		var tail []string
		if err := tx.IterateFrom([]byte("b"), func(k, _ []byte) (bool, error) {
			tail = append(tail, string(k))
			return true, nil
		}); err != nil {
			return err
		}
		if strings.Join(tail, ",") != "b" {
			return fmt.Errorf("tx.IterateFrom = %v", tail)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The staged view committed.
	if v, _, _ := st.Current().Get([]byte("b")); string(v) != "staged" {
		t.Fatalf("commit lost staged write: %q", v)
	}
}

// TestDecodePageRejectsHostileStructures covers each structural decode
// rejection with a correctly checksummed but malformed page.
func TestDecodePageRejectsHostileStructures(t *testing.T) {
	mk := func(mut func(buf []byte)) []byte {
		buf := make([]byte, PageSize)
		mut(buf)
		sealPage(buf)
		return buf
	}
	cases := map[string][]byte{
		"unknown type": mk(func(b []byte) { b[0] = 77 }),
		"meta bad magic": mk(func(b []byte) {
			b[0] = pageMeta
			copy(b[1:9], "NOTMAGIC")
		}),
		"leaf header overrun": mk(func(b []byte) {
			b[0] = pageLeaf
			binary.LittleEndian.PutUint16(b[1:3], 65535)
		}),
		"leaf key overrun": mk(func(b []byte) {
			b[0] = pageLeaf
			binary.LittleEndian.PutUint16(b[1:3], 1)
			binary.LittleEndian.PutUint16(b[3:5], MaxKeyLen+1) // klen
		}),
		"leaf unsorted keys": mk(func(b []byte) {
			b[0] = pageLeaf
			binary.LittleEndian.PutUint16(b[1:3], 2)
			off := leafHdr
			for _, k := range []string{"b", "a"} {
				binary.LittleEndian.PutUint16(b[off:off+2], 1)
				off += leafCell
				off += copy(b[off:], k)
			}
		}),
		"branch zero keys": mk(func(b []byte) { b[0] = pageBranch }),
		"branch cell overrun": mk(func(b []byte) {
			b[0] = pageBranch
			binary.LittleEndian.PutUint16(b[1:3], 400)
		}),
		"branch key overrun": mk(func(b []byte) {
			b[0] = pageBranch
			binary.LittleEndian.PutUint16(b[1:3], 1)
			binary.LittleEndian.PutUint16(b[branchHdr:branchHdr+2], 60000)
		}),
		"overflow oversize": mk(func(b []byte) {
			b[0] = pageOverflow
			binary.LittleEndian.PutUint32(b[9:13], uint32(ovfChunk+1))
		}),
	}
	for name, buf := range cases {
		if _, err := DecodePage(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodePage = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := DecodePage(make([]byte, 17)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short image: %v", err)
	}
}

// TestSnapshotPageBounds rejects page ids outside the snapshot's
// committed page range before touching the file.
func TestSnapshotPageBounds(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "k", "v")
	for _, id := range []uint64{0, 1, 1 << 40} {
		if _, err := st.Current().page(id); !errors.Is(err, ErrCorrupt) {
			t.Errorf("page(%d) = %v, want ErrCorrupt", id, err)
		}
	}
}

// failFile injects a WriteAt or Sync failure after a countdown, to
// drive the commit error paths.
type failFile struct {
	*memFile
	writesLeft int
	failSync   bool
}

var errInjected = errors.New("injected I/O failure")

func (f *failFile) WriteAt(p []byte, off int64) (int, error) {
	if f.writesLeft <= 0 {
		return 0, errInjected
	}
	f.writesLeft--
	return f.memFile.WriteAt(p, off)
}

func (f *failFile) Sync() error {
	if f.failSync && f.writesLeft <= 0 {
		return errInjected
	}
	return f.memFile.Sync()
}

func TestCommitSurfacesWriteErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
		sync   bool
	}{
		{"first data page write fails", 0, false},
		{"meta write fails", 1, false},
		{"sync fails", 1, true},
	} {
		mem := &memFile{}
		if err := initEmpty(mem); err != nil {
			t.Fatal(err)
		}
		ff := &failFile{memFile: mem, writesLeft: 1 << 30}
		st, err := openWith(ff, "fail.mem", false)
		if err != nil {
			t.Fatal(err)
		}
		ff.writesLeft = tc.budget
		ff.failSync = tc.sync
		err = st.Update(func(tx *Tx) error { return tx.Put([]byte("k"), []byte("v")) })
		if !errors.Is(err, errInjected) {
			t.Errorf("%s: Update = %v, want injected failure", tc.name, err)
		}
		// The in-memory state must not have advanced past the failure.
		ff.writesLeft = 1 << 30
		ff.failSync = false
		if st.Current().Seq() != 1 {
			t.Errorf("%s: failed commit advanced seq to %d", tc.name, st.Current().Seq())
		}
	}
}

func TestCreateRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Create(path); err == nil {
		t.Fatal("Create over an existing file succeeded")
	}
}

func TestCorruptSpecRecordSurfaces(t *testing.T) {
	st := tmpStore(t)
	importCorpus(t, st)
	// Smuggle garbage under a spec-layer key shape.
	mustPut(t, st, "api:zzz | ∄: junk", "{not json")
	if _, err := st.Current().Specs(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Specs over garbage record = %v, want ErrCorrupt", err)
	}
	if _, _, err := st.Current().SpecByKey("api:zzz | ∄: junk"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SpecByKey over garbage record = %v", err)
	}
	// A record holding zero specs is equally corrupt.
	mustPut(t, st, "api:zzz | ∄: junk", `{"ord":1,"db":{"specs":[]}}`)
	if _, _, err := st.Current().SpecByKey("api:zzz | ∄: junk"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SpecByKey over empty record = %v", err)
	}
}

func TestImportRejectsOversizedKey(t *testing.T) {
	st := tmpStore(t)
	bad := mkSpec(strings.Repeat("very.long.interface.", 50), "api", true, 1, "p")
	if _, _, err := st.ImportSpecs([]*spec.Spec{bad}); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("ImportSpecs(oversized key) = %v, want ErrKeyTooLong", err)
	}
	if _, err := st.UpsertSpec(bad); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("UpsertSpec(oversized key) = %v, want ErrKeyTooLong", err)
	}
}

// TestQueryMatchRemainingBranches drives each single-field rejection.
func TestQueryMatchRemainingBranches(t *testing.T) {
	sp := mkSpec("ops.prepare", "kmalloc", true, 1, "patch-1")
	tr := true
	fa := false
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{}, true},
		{Query{Scope: "iface:ops.prepare"}, true},
		{Query{Scope: "api:kmalloc"}, false},
		{Query{Iface: "ops.finish"}, false},
		{Query{API: "kfree"}, false},
		{Query{Origin: "P+"}, false},
		{Query{OriginPatch: "patch-2"}, false},
		{Query{Forbidden: &tr}, true},
		{Query{Forbidden: &fa}, false},
	}
	for i, tc := range cases {
		if got := tc.q.Match(sp); got != tc.want {
			t.Errorf("case %d: Match = %v, want %v", i, got, tc.want)
		}
	}
}

func TestStorePathAccessor(t *testing.T) {
	st := tmpStore(t)
	if st.Path() == "" || !strings.HasSuffix(st.Path(), "specs.db") {
		t.Fatalf("Path = %q", st.Path())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if err := st.Update(func(tx *Tx) error { return nil }); err == nil {
		t.Fatal("Update on closed store succeeded")
	}
	if _, err := st.Compact(); err == nil {
		t.Fatal("Compact on closed store succeeded")
	}
}

// TestBranchPageMemoization drives the store's lookup cache: batched
// import dedup walks the committed tree once per spec, and repeat walks
// are served checksum-verified branch pages from the cache. The test
// checks branch pages, so the tree must be deep enough to have them.
func TestBranchPageMemoization(t *testing.T) {
	st := tmpStore(t)
	big := strings.Repeat("v", maxInline+50)
	keyAt := func(i int) string { return fmt.Sprintf("memo-%05d", i) }
	err := st.Update(func(tx *Tx) error {
		for i := 0; i < 400; i++ {
			val := fmt.Sprintf("val%05d", i)
			if i%37 == 0 {
				val = big // overflow chains mixed into the leaves
			}
			if err := tx.Put([]byte(keyAt(i)), []byte(val)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Current()
	root, err := readPage(sn, sn.meta.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.Type != pageBranch {
		t.Fatalf("root is type %d, want a branch — memoization paths vacuous", root.Type)
	}

	// Store-level lookups: the first walk verifies and memoizes the root
	// branch; repeat walks must be served from the cache, and the cache
	// must survive only as long as its snapshot.
	st.mu.Lock()
	for _, i := range []int{3, 250, 399, 3} {
		v, ok, err := st.lookupLocked([]byte(keyAt(i)))
		if err != nil || !ok {
			t.Fatalf("lookupLocked(%d) = %v, %v", i, ok, err)
		}
		want := fmt.Sprintf("val%05d", i)
		if i%37 == 0 {
			want = big
		}
		if string(v) != want {
			t.Fatalf("lookupLocked(%d) returned %d bytes, want %d", i, len(v), len(want))
		}
	}
	if st.look == nil || len(st.look.verified) == 0 {
		t.Fatal("lookup cache memoized no branch pages")
	}
	if _, ok := st.look.verified[sn.meta.root]; !ok {
		t.Fatal("root branch page missing from lookup cache")
	}
	prev := st.look
	st.mu.Unlock()

	// A commit publishes a new snapshot; the stale cache must be
	// discarded, not consulted.
	mustPut(t, st, keyAt(1), "rewritten")
	st.mu.Lock()
	src, snap := st.lookupSourceLocked()
	if src == prev || snap == sn {
		t.Fatal("lookup cache not rebuilt after commit")
	}
	st.mu.Unlock()
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// readCountingFile counts reads per file offset.
type readCountingFile struct {
	*memFile
	reads map[int64]int // nil = not counting
}

func (f *readCountingFile) ReadAt(p []byte, off int64) (int, error) {
	if f.reads != nil {
		f.reads[off]++
	}
	return f.memFile.ReadAt(p, off)
}

// TestUpdateReadsCommittedPagesOnce pins the write transaction's
// single-pass contract: within one Update, a run of Puts reads each
// committed page from the file at most once, never reads back a page
// the transaction itself produced, and seals exactly the pages it
// writes.
func TestUpdateReadsCommittedPagesOnce(t *testing.T) {
	mem := &memFile{}
	if err := initEmpty(mem); err != nil {
		t.Fatal(err)
	}
	rf := &readCountingFile{memFile: mem}
	st, err := openWith(rf, "reads.mem", false)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("v", maxInline+50)
	keyAt := func(i int) string { return fmt.Sprintf("once-%05d", i) }
	err = st.Update(func(tx *Tx) error {
		for i := 0; i < 400; i++ {
			val := fmt.Sprintf("val%05d", i)
			if i%37 == 0 {
				val = big
			}
			if err := tx.Put([]byte(keyAt(i)), []byte(val)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	base := st.Current().meta
	if root, err := readPage(st.Current(), base.root); err != nil || root.Type != pageBranch {
		t.Fatalf("root page = %v, %v; want a branch so Puts share committed pages", root, err)
	}

	rf.reads = make(map[int64]int)
	work := *st.work
	err = st.Update(func(tx *Tx) error {
		// Every key twice over, large values replaced twice: each Put
		// descends the root and branch pages the previous Puts touched.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 400; i += 3 {
				val := fmt.Sprintf("pass%d-%05d", pass, i)
				if i%37 == 0 {
					val = big + val
				}
				if err := tx.Put([]byte(keyAt(i)), []byte(val)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.reads) == 0 {
		t.Fatal("Update read no committed pages — the check is vacuous")
	}
	for off, n := range rf.reads {
		id := uint64(off / PageSize)
		if id >= base.npages {
			t.Errorf("page %d was produced by the transaction and read back", id)
		}
		if n > 1 {
			t.Errorf("committed page %d read %d times in one Update", id, n)
		}
	}
	sealed := st.work.PagesSealed - work.PagesSealed
	written := (st.work.PageBytesWritten - work.PageBytesWritten) / PageSize
	if sealed != written {
		t.Errorf("Update sealed %d pages but wrote %d", sealed, written)
	}
	if want := st.Current().meta.npages - base.npages + 1; uint64(written) != want {
		t.Errorf("Update wrote %d pages, want %d new pages plus the meta page", written, want)
	}
	rf.reads = nil
	for i := 0; i < 400; i++ {
		want := fmt.Sprintf("val%05d", i)
		switch {
		case i%3 == 0 && i%37 == 0:
			want = big + fmt.Sprintf("pass1-%05d", i)
		case i%3 == 0:
			want = fmt.Sprintf("pass1-%05d", i)
		case i%37 == 0:
			want = big
		}
		got, ok, err := st.Current().Get([]byte(keyAt(i)))
		if err != nil || !ok || string(got) != want {
			t.Fatalf("key %d = %q, %v, %v; want %q", i, got, ok, err, want)
		}
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

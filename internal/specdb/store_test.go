package specdb

// Unit suite for the store proper: raw key/value operations across
// commits and reopens, overflow values, compaction, verification, the
// OpenAt snapshot-pinning contract, version-skew rejection, and the
// spec/query layer's ordinal-order guarantees.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seal/internal/solver"
	"seal/internal/spec"
)

func tmpStore(t *testing.T) *Store {
	t.Helper()
	st, err := Create(filepath.Join(t.TempDir(), "specs.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustPut(t *testing.T, st *Store, kv ...string) {
	t.Helper()
	if len(kv)%2 != 0 {
		t.Fatal("odd kv list")
	}
	err := st.Update(func(tx *Tx) error {
		for i := 0; i < len(kv); i += 2 {
			if err := tx.Put([]byte(kv[i]), []byte(kv[i+1])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func dump(t *testing.T, sn *Snapshot) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := sn.Iterate(func(k, v []byte) (bool, error) {
		out[string(k)] = string(v)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBasicPutGetDelete(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "b", "2", "a", "1", "c", "3")
	sn := st.Current()
	if sn.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sn.Len())
	}
	v, ok, err := sn.Get([]byte("b"))
	if err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := sn.Get([]byte("zz")); ok {
		t.Fatal("Get(zz) found a phantom key")
	}

	// Replace does not change the count.
	mustPut(t, st, "b", "two")
	if got := st.Current().Len(); got != 3 {
		t.Fatalf("Len after replace = %d, want 3", got)
	}

	err = st.Update(func(tx *Tx) error {
		ok, err := tx.Delete([]byte("a"))
		if err != nil || !ok {
			return fmt.Errorf("Delete(a) = %v, %v", ok, err)
		}
		ok, err = tx.Delete([]byte("missing"))
		if err != nil || ok {
			return fmt.Errorf("Delete(missing) = %v, %v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dump(t, st.Current())
	if len(got) != 2 || got["b"] != "two" || got["c"] != "3" {
		t.Fatalf("final state %v", got)
	}
}

func TestIterationOrderAndRange(t *testing.T) {
	st := tmpStore(t)
	// Enough keys to force a multi-level tree.
	err := st.Update(func(tx *Tx) error {
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key-%04d", (i*193)%500) // scrambled insert order
			if err := tx.Put([]byte(k), []byte(strings.Repeat("v", i%40))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	if err := st.Current().Iterate(func(k, _ []byte) (bool, error) {
		keys = append(keys, string(k))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 500 {
		t.Fatalf("iterated %d keys, want 500", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	// Range scan from the middle.
	var from []string
	err = st.Current().IterateFrom([]byte("key-0250"), func(k, _ []byte) (bool, error) {
		from = append(from, string(k))
		return len(from) < 5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"key-0250", "key-0251", "key-0252", "key-0253", "key-0254"}
	if strings.Join(from, ",") != strings.Join(want, ",") {
		t.Fatalf("IterateFrom = %v, want %v", from, want)
	}
}

func TestOverflowValues(t *testing.T) {
	st := tmpStore(t)
	big := strings.Repeat("x", 3*ovfChunk+17) // spans four overflow pages
	mid := strings.Repeat("y", maxInline+1)   // smallest overflow value
	edge := strings.Repeat("z", maxInline)    // largest inline value
	mustPut(t, st, "big", big, "mid", mid, "edge", edge)
	for k, want := range map[string]string{"big": big, "mid": mid, "edge": edge} {
		v, ok, err := st.Current().Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("Get(%s): %v %v", k, ok, err)
		}
		if string(v) != want {
			t.Fatalf("Get(%s) = %d bytes, want %d", k, len(v), len(want))
		}
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolationAcrossCommit(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "k1", "old", "k2", "keep")
	old := st.Current()
	mustPut(t, st, "k1", "new", "k3", "added")
	if err := st.Update(func(tx *Tx) error { _, err := tx.Delete([]byte("k2")); return err }); err != nil {
		t.Fatal(err)
	}

	got := dump(t, old)
	if len(got) != 2 || got["k1"] != "old" || got["k2"] != "keep" {
		t.Fatalf("old snapshot changed after commits: %v", got)
	}
	cur := dump(t, st.Current())
	if len(cur) != 2 || cur["k1"] != "new" || cur["k3"] != "added" {
		t.Fatalf("current snapshot wrong: %v", cur)
	}
	if old.Seq() >= st.Current().Seq() {
		t.Fatalf("seq did not advance: %d -> %d", old.Seq(), st.Current().Seq())
	}
}

func TestReopenByteIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "alpha", "1", "beta", strings.Repeat("b", 2000), "gamma", "3")
	want := dump(t, st.Current())
	wantSeq := st.Current().Seq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Current().Seq() != wantSeq {
		t.Fatalf("reopened seq %d, want %d", st2.Current().Seq(), wantSeq)
	}
	got := dump(t, st2.Current())
	if len(got) != len(want) {
		t.Fatalf("reopened %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("reopened %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestUpdateRollbackOnError(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "k", "v")
	seq := st.Current().Seq()
	boom := errors.New("boom")
	err := st.Update(func(tx *Tx) error {
		if err := tx.Put([]byte("junk"), []byte("junk")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update error = %v", err)
	}
	if st.Current().Seq() != seq {
		t.Fatal("failed Update advanced the commit sequence")
	}
	if _, ok, _ := st.Current().Get([]byte("junk")); ok {
		t.Fatal("failed Update leaked a key")
	}
	// A no-op Update must not commit either.
	if err := st.Update(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st.Current().Seq() != seq {
		t.Fatal("empty Update advanced the commit sequence")
	}
}

func TestPutKeyValidation(t *testing.T) {
	st := tmpStore(t)
	err := st.Update(func(tx *Tx) error { return tx.Put(nil, []byte("v")) })
	if err == nil || !strings.Contains(err.Error(), "empty key") {
		t.Fatalf("empty key error = %v", err)
	}
	err = st.Update(func(tx *Tx) error { return tx.Put(bytes.Repeat([]byte("k"), MaxKeyLen+1), nil) })
	if !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key error = %v", err)
	}
	// Exactly MaxKeyLen is fine.
	if err := st.Update(func(tx *Tx) error { return tx.Put(bytes.Repeat([]byte("k"), MaxKeyLen), nil) }); err != nil {
		t.Fatal(err)
	}
}

// TestPutCopiesCallerBuffers pins Put's contract: a caller may reuse one
// key buffer and one value buffer across the Puts of a transaction, and
// the commit holds what each Put was handed — inline and overflow
// values alike, through leaf and branch splits.
func TestPutCopiesCallerBuffers(t *testing.T) {
	st := tmpStore(t)
	const n = 300
	want := func(i int) string {
		return strings.Repeat(string(rune('a'+i%26)), 1+i*53%(2*ovfChunk))
	}
	key := make([]byte, 0, 16)
	val := make([]byte, 0, 2*ovfChunk)
	err := st.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			key = fmt.Appendf(key[:0], "k%05d", i)
			val = append(val[:0], want(i)...)
			if err := tx.Put(key, val); err != nil {
				return err
			}
		}
		// Overwrite the buffers once more before the commit.
		copy(key, "zzzzzz")
		clear(val[:cap(val)])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dump(t, st.Current())
	if len(got) != n {
		t.Fatalf("store holds %d keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if k := fmt.Sprintf("k%05d", i); got[k] != want(i) {
			t.Fatalf("%s: read back %d bytes, want %d bytes of %q", k, len(got[k]), len(want(i)), want(i)[0])
		}
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "k", "v")
	st.Close()

	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Update on read-only store = %v", err)
	}
	if _, err := ro.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact on read-only store = %v", err)
	}
	if v, ok, err := ro.Current().Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read-only Get = %q %v %v", v, ok, err)
	}
}

func TestOpenAtPinsResidentSeqs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustPut(t, st, "k", "v1") // seq 2
	mustPut(t, st, "k", "v2") // seq 3
	cur := st.Current().Seq()

	for want, val := range map[uint64]string{cur: "v2", cur - 1: "v1"} {
		pin, err := OpenAt(path, want)
		if err != nil {
			t.Fatalf("OpenAt(%d): %v", want, err)
		}
		if v, ok, _ := pin.Current().Get([]byte("k")); !ok || string(v) != val {
			t.Fatalf("OpenAt(%d) sees k=%q, want %q", want, v, val)
		}
		pin.Close()
	}

	_, err = OpenAt(path, cur+7)
	if !errors.Is(err, ErrSnapshotGone) {
		t.Fatalf("OpenAt(future) = %v, want ErrSnapshotGone", err)
	}
	_, err = OpenAt(path, cur-2)
	if !errors.Is(err, ErrSnapshotGone) {
		t.Fatalf("OpenAt(evicted) = %v, want ErrSnapshotGone", err)
	}
}

func TestVersionSkewRejectedCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "k", "v")
	st.Close()

	// Bump the version field in both meta slots and re-seal the pages.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		pg := data[slot*PageSize : (slot+1)*PageSize]
		if pg[0] != pageMeta {
			continue
		}
		binary.LittleEndian.PutUint32(pg[9:13], FormatVersion+41)
		sealPage(pg)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(path)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Open(skewed) = %v, want ErrVersion", err)
	}
	for _, frag := range []string{"format", fmt.Sprint(FormatVersion + 41), "specdb -import"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("skew error %q does not mention %q", err, frag)
		}
	}
}

func TestOpenGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	if err := os.WriteFile(path, bytes.Repeat([]byte("garbage "), 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNotStore) {
		t.Fatalf("Open(garbage) = %v, want ErrNotStore", err)
	}
	if _, err := OpenAt(path, 1); !errors.Is(err, ErrNotStore) {
		t.Fatalf("OpenAt(garbage) = %v, want ErrNotStore", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Fatal("Open(missing) succeeded")
	}
}

func TestCompactReclaimsAndPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Lots of superseded page versions: repeated single-key commits.
	for i := 0; i < 50; i++ {
		mustPut(t, st, fmt.Sprintf("k%02d", i), strings.Repeat("v", 600+i))
		mustPut(t, st, fmt.Sprintf("k%02d", i), strings.Repeat("w", 600+i))
	}
	before := dump(t, st.Current())
	preSeq := st.Current().Seq()
	pre := st.Stats()
	held := st.Current() // snapshot taken before compaction must survive it

	cs, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Seq != preSeq+1 {
		t.Fatalf("compact seq %d, want %d", cs.Seq, preSeq+1)
	}
	if cs.PagesAfter >= cs.PagesBefore {
		t.Fatalf("compaction did not shrink: %d -> %d pages", cs.PagesBefore, cs.PagesAfter)
	}
	if pre.Pages != cs.PagesBefore {
		t.Fatalf("stats/compact disagree on page count: %d vs %d", pre.Pages, cs.PagesBefore)
	}
	after := dump(t, st.Current())
	if len(after) != len(before) {
		t.Fatalf("compaction changed key count: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("compaction changed %q", k)
		}
	}
	if got := dump(t, held); len(got) != len(before) {
		t.Fatal("pre-compaction snapshot broke after Compact")
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}

	// Writes continue against the compacted file, and a reopen sees them.
	mustPut(t, st, "post-compact", "yes")
	st.Close()
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v, ok, _ := st2.Current().Get([]byte("post-compact")); !ok || string(v) != "yes" {
		t.Fatalf("post-compact write lost: %q %v", v, ok)
	}
}

// TestCompactWritesSettledSubtreesAsItGoes compacts a store several
// times compactFlushKeys large, so the rewrite writes settled subtrees
// mid-iteration, and checks the result holds every key, has no dead
// page, and compacts again to the same size.
func TestCompactWritesSettledSubtreesAsItGoes(t *testing.T) {
	st := tmpStore(t)
	const n = 5*compactFlushKeys + 77
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for b := 0; b < n; b += 1000 {
		err := st.Update(func(tx *Tx) error {
			for _, i := range perm[b:min(b+1000, n)] {
				val := strings.Repeat(string(rune('a'+i%26)), 20+i*131%(2*ovfChunk))
				if err := tx.Put([]byte(fmt.Sprintf("key/%06d", i)), []byte(val)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	before := dump(t, st.Current())
	cs, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	after := dump(t, st.Current())
	if len(after) != n || len(before) != n {
		t.Fatalf("compaction kept %d of %d keys", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("compaction changed %q", k)
		}
	}
	vs, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if live := vs.TreePages + vs.OverflowPages + 2; live != cs.PagesAfter {
		t.Fatalf("compacted file has %d pages, %d of them live", cs.PagesAfter, live)
	}
	again, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if again.PagesAfter != cs.PagesAfter {
		t.Fatalf("second compaction: %d pages, first: %d", again.PagesAfter, cs.PagesAfter)
	}
}

func TestVerifyCatchesCorruptPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "a", "1", "b", "2")
	st.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the tree root page (found via the newest meta slot).
	var root uint64
	var bestSeq uint64
	for slot := 0; slot < 2; slot++ {
		if p, err := DecodePage(data[slot*PageSize : (slot+1)*PageSize]); err == nil && p.Type == pageMeta && p.Seq > bestSeq {
			bestSeq, root = p.Seq, p.Root
		}
	}
	if root == 0 {
		t.Fatal("no root page found")
	}
	data[root*PageSize+100] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path) // meta pages are intact, open succeeds
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify on flipped page = %v, want ErrCorrupt", err)
	}
	if _, _, err := st2.Current().Get([]byte("a")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get through flipped page = %v, want ErrCorrupt", err)
	}
}

func TestStats(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "a", "1", "b", "2")
	got := st.Stats()
	if got.Keys != 2 || got.Seq != 2 || got.Pages < 3 || got.FileBytes < int64(got.Pages-1)*PageSize {
		t.Fatalf("stats = %+v", got)
	}
	if got.Path == "" || got.NextOrd != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

// --- spec layer ---

func mkSpec(iface, api string, forbidden bool, lit int64, patch string) *spec.Spec {
	return &spec.Spec{
		ID:    fmt.Sprintf("S-%s%s-%d", iface, api, lit),
		Iface: iface,
		API:   api,
		Constraint: spec.Constraint{
			Forbidden: forbidden,
			Rel: spec.Relation{
				Kind: spec.RelReach,
				V:    spec.Value{Kind: spec.VLiteral, Lit: lit},
				U:    spec.Use{Kind: spec.UDeref},
				Cond: solver.TrueF{},
			},
		},
		Origin:      spec.OriginRemoved,
		OriginPatch: patch,
	}
}

func testCorpus() []*spec.Spec {
	return []*spec.Spec{
		mkSpec("ops.prepare", "kmalloc", true, 1, "patch-1"),
		mkSpec("", "kfree", true, 2, "patch-1"),
		mkSpec("ops.prepare", "kmalloc", false, 3, "patch-2"),
		mkSpec("ops.finish", "dma_map", true, 4, "patch-2"),
		mkSpec("", "kfree", false, 5, "patch-3"),
	}
}

func importCorpus(t *testing.T, st *Store) []*spec.Spec {
	t.Helper()
	corpus := testCorpus()
	added, skipped, err := st.ImportSpecs(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(corpus) || skipped != 0 {
		t.Fatalf("import: added %d skipped %d", added, skipped)
	}
	return corpus
}

func specKeys(specs []*spec.Spec) []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Key()
	}
	return out
}

func TestImportOrdinalOrderMatchesFlat(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)
	got, err := st.Current().Specs()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(specKeys(got), "\n") != strings.Join(specKeys(corpus), "\n") {
		t.Fatalf("Specs() order:\n%v\nwant flat order:\n%v", specKeys(got), specKeys(corpus))
	}

	// Re-import is first-wins: everything skipped, nothing changed.
	added, skipped, err := st.ImportSpecs(corpus)
	if err != nil || added != 0 || skipped != len(corpus) {
		t.Fatalf("re-import: added %d skipped %d err %v", added, skipped, err)
	}
}

func TestUpsertKeepsOrdinalDeleteRemoves(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)

	// Edit spec #1 in place: same key, new origin patch.
	edited := *corpus[1]
	edited.OriginPatch = "patch-1-edited"
	created, err := st.UpsertSpec(&edited)
	if err != nil || created {
		t.Fatalf("upsert existing: created=%v err=%v", created, err)
	}
	got, err := st.Current().Specs()
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Key() != corpus[1].Key() || got[1].OriginPatch != "patch-1-edited" {
		t.Fatalf("edited spec moved or kept old patch: pos1=%s from %s", got[1].Key(), got[1].OriginPatch)
	}

	// A brand-new spec appends at the end of ordinal order.
	extra := mkSpec("ops.extra", "vmalloc", true, 9, "patch-9")
	created, err = st.UpsertSpec(extra)
	if err != nil || !created {
		t.Fatalf("upsert new: created=%v err=%v", created, err)
	}
	got, _ = st.Current().Specs()
	if got[len(got)-1].Key() != extra.Key() {
		t.Fatal("new spec did not append at the ordinal tail")
	}

	deleted, err := st.DeleteSpec(extra.Key())
	if err != nil || !deleted {
		t.Fatalf("delete: %v %v", deleted, err)
	}
	deleted, err = st.DeleteSpec(extra.Key())
	if err != nil || deleted {
		t.Fatalf("re-delete: %v %v", deleted, err)
	}
	if got, _ = st.Current().Specs(); len(got) != len(corpus) {
		t.Fatalf("after delete: %d specs, want %d", len(got), len(corpus))
	}
}

func TestScopeAndScopesSpecs(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)

	one, err := st.Current().ScopeSpecs("iface:ops.prepare")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 2 || one[0].Key() != corpus[0].Key() || one[1].Key() != corpus[2].Key() {
		t.Fatalf("ScopeSpecs = %v", specKeys(one))
	}
	if none, _ := st.Current().ScopeSpecs("iface:nope"); len(none) != 0 {
		t.Fatalf("ScopeSpecs(nope) = %v", specKeys(none))
	}

	// Multi-scope gather sorts globally by ordinal regardless of the
	// scope list order.
	multi, err := st.Current().ScopesSpecs([]string{"api:kfree", "iface:ops.prepare"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{corpus[0].Key(), corpus[1].Key(), corpus[2].Key(), corpus[4].Key()}
	if strings.Join(specKeys(multi), "\n") != strings.Join(want, "\n") {
		t.Fatalf("ScopesSpecs = %v, want %v", specKeys(multi), want)
	}

	sp, ok, err := st.Current().SpecByKey(corpus[3].Key())
	if err != nil || !ok || sp.API != "dma_map" {
		t.Fatalf("SpecByKey = %v %v %v", sp, ok, err)
	}
	if _, ok, _ := st.Current().SpecByKey("api:none | ∄: ?"); ok {
		t.Fatal("SpecByKey found a phantom spec")
	}
}

func TestQueryFilters(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)
	sn := st.Current()

	cases := []struct {
		q    string
		want []int // corpus indices
	}{
		{"", []int{0, 1, 2, 3, 4}},
		{"iface=ops.prepare", []int{0, 2}},
		{"api=kfree", []int{1, 4}},
		{"scope=iface:ops.finish", []int{3}},
		{"patch=patch-2", []int{2, 3}},
		{"forbidden=true", []int{0, 1, 3}},
		{"forbidden=false", []int{2, 4}},
		{"iface=ops.prepare, forbidden=false", []int{2}},
		{"origin=P-", []int{0, 1, 2, 3, 4}},
		{"origin=PΩ", nil},
	}
	for _, tc := range cases {
		q, err := ParseQuery(tc.q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.q, err)
		}
		got, err := sn.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", tc.q, err)
		}
		var want []string
		for _, i := range tc.want {
			want = append(want, corpus[i].Key())
		}
		if strings.Join(specKeys(got), "\n") != strings.Join(want, "\n") {
			t.Errorf("Query(%q) = %v, want %v", tc.q, specKeys(got), want)
		}
	}

	for _, bad := range []string{"bogus=1", "forbidden=maybe", "noequals"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestSpecRoundTripPreservesBytes(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)
	got, err := st.Current().Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, &spec.DB{Specs: corpus})
	have := mustJSON(t, &spec.DB{Specs: got})
	if !bytes.Equal(want, have) {
		t.Fatalf("store round trip changed spec DB bytes:\n%s\nvs\n%s", want, have)
	}
}

func mustJSON(t *testing.T, db *spec.DB) []byte {
	t.Helper()
	data, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

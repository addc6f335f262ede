package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pracsim/internal/fault"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	payload := []byte(`{"result":42}`)
	if _, ok := s.Get("k"); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 write", st)
	}
	if st.BytesRead != int64(len(payload)) || st.BytesWritten != int64(len(payload)) {
		t.Errorf("byte counters = %+v", st)
	}
}

// TestKeysAreIndependent: different keys address different entries, and a
// second Put overwrites.
func TestKeysAreIndependent(t *testing.T) {
	s := open(t)
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		got, ok := s.Get(fmt.Sprintf("key-%d", i))
		if !ok || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("key-%d = %v, %v", i, got, ok)
		}
	}
	if err := s.Put("key-3", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("key-3"); !ok || string(got) != "replaced" {
		t.Fatalf("overwrite lost: %q, %v", got, ok)
	}
}

// TestCorruptEntryIsAMiss exercises the robustness contract: truncation
// and bit flips anywhere in the entry degrade to a miss, and a recompute's
// Put restores the entry.
func TestCorruptEntryIsAMiss(t *testing.T) {
	payload := []byte("a payload long enough to truncate meaningfully")
	s := open(t)
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	path := s.Disk().path("k")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"empty":          {},
		"half":           pristine[:len(pristine)/2],
		"no magic":       pristine[1:],
		"flipped byte":   append(append([]byte{}, pristine[:len(magic)+5]...), append([]byte{pristine[len(magic)+5] ^ 0xff}, pristine[len(magic)+6:]...)...),
		"flipped output": append(append([]byte{}, pristine[:len(pristine)-1]...), pristine[len(pristine)-1]^1),
	}
	for name, data := range corruptions {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get("k"); ok {
			t.Errorf("%s: corrupt entry served as a hit: %q", name, got)
		}
		if err := s.Put("k", payload); err != nil {
			t.Fatalf("%s: re-put after corruption: %v", name, err)
		}
		if got, ok := s.Get("k"); !ok || !bytes.Equal(got, payload) {
			t.Errorf("%s: entry not restored: %q, %v", name, got, ok)
		}
	}
}

// TestCraftedLengthIsAMissNotAPanic: a payload-length uvarint near 2^64
// must fail the frame validation, not wrap the bounds arithmetic and
// panic — a crafted or badly corrupted entry in a shared store must
// never crash the reader.
func TestCraftedLengthIsAMissNotAPanic(t *testing.T) {
	s := open(t)
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Rebuild the entry with the payload length replaced by maxUint64 -
	// 31 (so payLen + 32 wraps to a small number).
	var frame bytes.Buffer
	frame.WriteString(magic)
	var lenbuf [binary.MaxVarintLen64]byte
	frame.Write(lenbuf[:binary.PutUvarint(lenbuf[:], uint64(len("k")))])
	frame.WriteString("k")
	frame.Write(lenbuf[:binary.PutUvarint(lenbuf[:], ^uint64(31))])
	frame.WriteString("short")
	if err := os.WriteFile(s.Disk().path("k"), frame.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); ok {
		t.Errorf("crafted entry served as a hit: %q", got)
	}
}

// TestResolve pins the CLI flag resolution shared by the cmd
// binaries: off modes and explicit directories route through the one
// entry point.
func TestResolve(t *testing.T) {
	for _, mode := range []string{"off", "none", ""} {
		st, warn, err := Resolve(mode, DiskOptions{})
		if st != nil || warn != "" || err != nil {
			t.Errorf("Resolve(%q) = %v, %q, %v; want nil store", mode, st, warn, err)
		}
	}
	dir := t.TempDir()
	st, warn, err := Resolve(dir, DiskOptions{})
	if err != nil || warn != "" || st == nil || st.Spec() != dir || st.Disk().Dir() != dir {
		t.Errorf("Resolve(dir) = %v, %q, %v", st, warn, err)
	}
}

// TestResolveRemote: a URL spec is not a directory name. Resolve
// rejects it with ErrURLSpec, whose message points at pracsimd's job
// queue, and creates nothing on disk — not even a directory named
// "http:".
func TestResolveRemote(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, spec := range []string{"http://127.0.0.1:8460", "https://build-0:8460/", "http://x"} {
		st, warn, err := Resolve(spec, DiskOptions{})
		if st != nil || warn != "" || !errors.Is(err, ErrURLSpec) {
			t.Errorf("Resolve(%q) = %v, %q, %v; want ErrURLSpec", spec, st, warn, err)
		}
	}
	if err := fmt.Sprint(ErrURLSpec); !strings.Contains(err, "pracsimd") || !strings.Contains(err, "tpracsim -pull") {
		t.Errorf("ErrURLSpec does not point at the job queue: %q", err)
	}
	if entries, err := os.ReadDir("."); err != nil || len(entries) != 0 {
		t.Errorf("rejected URL specs left %v (%v) behind", entries, err)
	}
}

// TestResolveAutoDegradesToOff: the store is strictly a cache, so
// an environment where the user cache directory cannot be resolved (no
// $HOME — CI containers) must degrade "auto" to store-off with a
// warning, not fail the CLI. An explicit directory still fails hard.
func TestResolveAutoDegradesToOff(t *testing.T) {
	t.Setenv("HOME", "")
	t.Setenv("XDG_CACHE_HOME", "")
	st, warn, err := Resolve("auto", DiskOptions{})
	if err != nil {
		t.Fatalf("Resolve(auto) hard-failed without a cache dir: %v", err)
	}
	if st != nil {
		t.Errorf("Resolve(auto) opened a store at %q without a cache dir", st.Spec())
	}
	if warn == "" || !strings.Contains(warn, "-store DIR") {
		t.Errorf("degraded Resolve(auto) warning unhelpful: %q", warn)
	}
	// The explicit-path contract is unchanged: the user named the
	// location, so failing to create it is an error.
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if werr := os.WriteFile(bad, []byte("file in the way"), 0o644); werr != nil {
		t.Fatal(werr)
	}
	if _, _, err := Resolve(filepath.Join(bad, "sub"), DiskOptions{}); err == nil {
		t.Error("Resolve(explicit unusable dir) did not fail")
	}
}

// TestKeyMismatchIsAMiss simulates a hash collision: an entry file whose
// embedded key differs from the requested key must be a miss even though
// it is internally consistent, for Get and for Stat, whether the foreign
// key is shorter or longer than the header Stat reads for the wanted key.
func TestKeyMismatchIsAMiss(t *testing.T) {
	s := open(t)
	for _, other := range []string{"other-key", "a-foreign-key-" + strings.Repeat("x", 64)} {
		if err := s.Put(other, []byte("other payload")); err != nil {
			t.Fatal(err)
		}
		// Copy the other key's entry file to where "wanted-key" would live.
		data, err := os.ReadFile(s.Disk().path(other))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Disk().path("wanted-key"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if info, err := s.Disk().Stat("wanted-key"); err == nil {
			t.Errorf("Stat described %q's entry as wanted-key's: %+v", other, info)
		}
		if got, ok := s.Get("wanted-key"); ok {
			t.Errorf("colliding entry served as a hit: %q", got)
		}
	}
}

// TestConcurrentWriters hammers one store with racing writers and readers
// across shared and distinct keys; under -race this is the concurrency
// safety test, and every read must observe either a miss or a complete,
// valid payload for its key (atomic rename: never a torn entry).
func TestConcurrentWriters(t *testing.T) {
	s := open(t)
	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", g)
			for i := 0; i < rounds; i++ {
				if err := s.Put("shared", []byte("shared payload")); err != nil {
					t.Error(err)
				}
				if err := s.Put(own, []byte(own)); err != nil {
					t.Error(err)
				}
				if got, ok := s.Get("shared"); ok && string(got) != "shared payload" {
					t.Errorf("torn shared read: %q", got)
				}
				if got, ok := s.Get(own); !ok || string(got) != own {
					t.Errorf("own key %s read %q, %v", own, got, ok)
				}
			}
		}()
	}
	wg.Wait()
	// No temp files may survive.
	entries, err := os.ReadDir(s.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if got := e.Name(); len(got) < 4 || got[len(got)-4:] != ".run" {
			t.Errorf("leftover non-entry file %s", got)
		}
	}
}

// TestVersionedKeysDoNotAlias: keys that differ only in an embedded
// version component address different entries — the invalidation
// mechanism a schema bump relies on.
func TestVersionedKeysDoNotAlias(t *testing.T) {
	s := open(t)
	if err := s.Put("run/v3/x", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("run/v4/x"); ok {
		t.Error("v4 key hit a v3 entry")
	}
	if got, ok := s.Get("run/v3/x"); !ok || string(got) != "v3" {
		t.Errorf("v3 entry lost: %q, %v", got, ok)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestConcurrentSameKeyPutOneAtomicWinner: two writers racing distinct
// payloads onto one key must resolve to exactly one complete payload —
// the atomic-rename contract means a reader can observe either writer's
// entry but never a torn mix, and the last rename wins outright.
func TestConcurrentSameKeyPutOneAtomicWinner(t *testing.T) {
	s := open(t)
	a := bytes.Repeat([]byte("A"), 8192)
	b := bytes.Repeat([]byte("B"), 8192)
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		var start sync.WaitGroup
		start.Add(1)
		for _, payload := range [][]byte{a, b} {
			wg.Add(1)
			go func(p []byte) {
				defer wg.Done()
				start.Wait()
				if err := s.Put("contested", p); err != nil {
					t.Error(err)
				}
			}(payload)
		}
		start.Done()
		wg.Wait()
		got, ok := s.Get("contested")
		if !ok {
			t.Fatalf("round %d: no winner published", round)
		}
		if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
			t.Fatalf("round %d: torn entry: %d bytes, first=%q last=%q",
				round, len(got), got[0], got[len(got)-1])
		}
	}
	// The losers' temp files must not accumulate.
	entries, err := os.ReadDir(s.Disk().Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".run") {
			t.Errorf("leftover non-entry file %s", e.Name())
		}
	}
}

// TestDiskBackendSurface covers the disk's maintenance surface: Stat,
// List and Delete over validated entries, with corrupt and foreign files
// skipped rather than listed.
func TestDiskBackendSurface(t *testing.T) {
	s := open(t)
	d := s.Disk()
	keys := []string{"pracsim/run/v3/a", "pracsim/run/v3/b", "pracsim/exp/v2/c"}
	for i, k := range keys {
		if err := s.Put(k, bytes.Repeat([]byte{byte(i + 1)}, 10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Debris: a corrupt entry and a foreign file must not surface.
	if err := os.WriteFile(filepath.Join(d.Dir(), Hash("junk")+".run"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.Dir(), "README.txt"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	info, err := d.Stat("pracsim/run/v3/b")
	if err != nil || info.Key != "pracsim/run/v3/b" || info.Size != 20 {
		t.Errorf("Stat = %+v, %v", info, err)
	}
	if _, err := d.Stat("absent"); err != ErrNotFound {
		t.Errorf("Stat(absent) = %v, want ErrNotFound", err)
	}

	infos, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int64{}
	for _, i := range infos {
		listed[i.Key] = i.Size
	}
	if len(listed) != len(keys) || listed["pracsim/run/v3/a"] != 10 || listed["pracsim/exp/v2/c"] != 30 {
		t.Errorf("List = %v", listed)
	}

	if err := d.Delete("pracsim/run/v3/a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("pracsim/run/v3/a"); err != ErrNotFound {
		t.Errorf("second Delete = %v, want ErrNotFound", err)
	}
	if _, ok := s.Get("pracsim/run/v3/a"); ok {
		t.Error("deleted entry still served")
	}
}

// TestStatRejectsTruncatedEntry: Stat skips the payload checksum for
// speed, but its size-consistency check still catches the common
// corruption (truncation) — a half-written or chopped file must not
// look like a present entry to Stat-before-Put callers.
func TestStatRejectsTruncatedEntry(t *testing.T) {
	s := open(t)
	d := s.Disk()
	if err := s.Put("k", []byte("a payload long enough to truncate meaningfully")); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(d.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path("k"), pristine[:len(pristine)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := d.Stat("k"); err == nil {
		t.Errorf("Stat served a truncated entry: %+v", info)
	}
}

// TestQuarantineCorruptEntry: an entry that fails validation on read is
// renamed aside (*.quarantine) so the bad bytes cost one read, not one
// per access, and the count is visible in Stats. A later Put publishes a
// fresh entry at the original path.
func TestQuarantineCorruptEntry(t *testing.T) {
	s := open(t)
	if err := s.Put("k", []byte("a payload long enough to corrupt meaningfully")); err != nil {
		t.Fatal(err)
	}
	d := s.Disk()
	path := d.path("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still at %s: %v", path, err)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("no quarantine file: %v", err)
	}
	if d.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", d.Quarantined())
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}

	// The second access is a plain not-found miss: the bad entry is gone
	// from the .run namespace, so it is not re-read or re-counted.
	if _, ok := s.Get("k"); ok {
		t.Fatal("quarantined entry served as a hit")
	}
	if d.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d after second Get, want still 1", d.Quarantined())
	}

	// List and the maintenance surface must not see the quarantined file.
	if infos, err := d.List(); err != nil || len(infos) != 0 {
		t.Errorf("List = %v, %v; want empty", infos, err)
	}

	// A recompute's Put restores the entry at the original path.
	if err := s.Put("k", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "fresh" {
		t.Errorf("entry not restored: %q, %v", got, ok)
	}
}

// TestPutDegradesWhenStorageFull: a backend reporting itself full turns
// the store write-off for the rest of the process — one warning line,
// dropped writes counted, reads still served — instead of failing runs
// over what is strictly a cache.
func TestPutDegradesWhenStorageFull(t *testing.T) {
	defer fault.Disable()
	s := open(t)
	if err := s.Put("warm", []byte("kept")); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	s.Warn = func(msg string) { warnings = append(warnings, msg) }

	plan, err := fault.Parse("store.disk.put:enospc")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(plan)
	if err := s.Put("k1", []byte("lost")); err != nil {
		t.Fatalf("ENOSPC Put failed the caller: %v", err)
	}
	fault.Disable()

	// The store is write-off now: even though the disk would accept this
	// write, the front drops it (and counts it) rather than flapping.
	if err := s.Put("k2", []byte("also dropped")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WritesDropped != 2 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 2 dropped / 1 write", st)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "writes disabled") {
		t.Errorf("warnings = %q, want exactly one store-off line", warnings)
	}
	if got, ok := s.Get("warm"); !ok || string(got) != "kept" {
		t.Errorf("reads broken after write-off: %q, %v", got, ok)
	}
	if _, ok := s.Get("k1"); ok {
		t.Error("dropped write served as a hit")
	}
}

// TestShortWriteDegradesToo: io.ErrShortWrite is in the storage-full
// class — same degrade, not a failed run.
func TestShortWriteDegradesToo(t *testing.T) {
	defer fault.Disable()
	s := open(t)
	s.Warn = func(string) {}
	plan, err := fault.Parse("store.disk.put:shortx1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(plan)
	if err := s.Put("k", []byte("x")); err != nil {
		t.Fatalf("short-write Put failed the caller: %v", err)
	}
	if st := s.Stats(); st.WritesDropped != 1 {
		t.Errorf("stats = %+v, want 1 dropped write", st)
	}
}

// TestDiskGetFaultInjection: the store.disk.get failpoint's corrupt kind
// mangles the read bytes, which the validation catches and quarantines —
// the whole bitrot path, driven end-to-end by the fault layer.
func TestDiskGetFaultInjection(t *testing.T) {
	defer fault.Disable()
	s := open(t)
	if err := s.Put("k", []byte("payload to be bitrotted")); err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("store.disk.get:corruptx1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(plan)
	if _, ok := s.Get("k"); ok {
		t.Fatal("bitrotted read served as a hit")
	}
	fault.Disable()
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want the bitrotted entry quarantined", st)
	}
	// The on-disk entry was quarantined, so a fault-free Get misses.
	if _, ok := s.Get("k"); ok {
		t.Fatal("quarantined entry served")
	}
}

// TestOpenSweepsOrphanedTmpFiles: put-*.tmp debris from a writer killed
// mid-Put is removed the next time the store opens — but only once it
// is old enough that it cannot belong to a concurrent writer — and the
// sweep is visible in Stats and the report line.
func TestOpenSweepsOrphanedTmpFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "put-dead1.tmp")
	young := filepath.Join(dir, "put-live2.tmp")
	other := filepath.Join(dir, "unrelated.tmp")
	for _, p := range []string{stale, young, other} {
		if err := os.WriteFile(p, []byte("half-written frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * DefaultTmpSweepAge)
	if err := os.Chtimes(stale, past, past); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(other, past, past); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(stale); !os.IsNotExist(statErr) {
		t.Errorf("stale temp file survived the sweep: %v", statErr)
	}
	if _, statErr := os.Stat(young); statErr != nil {
		t.Errorf("young temp file swept (could be a live writer's): %v", statErr)
	}
	if _, statErr := os.Stat(other); statErr != nil {
		t.Errorf("non-Put file swept: %v", statErr)
	}
	st := s.Stats()
	if st.TmpSwept != 1 {
		t.Errorf("Stats.TmpSwept = %d, want 1", st.TmpSwept)
	}
	if !strings.Contains(st.Report(dir), "swept 1 orphaned temp file") {
		t.Errorf("sweep missing from report: %q", st.Report(dir))
	}

	// A store with nothing to sweep reports nothing.
	clean := open(t)
	if got := clean.Stats().Report("x"); strings.Contains(got, "swept") {
		t.Errorf("clean store reports a sweep: %q", got)
	}
}

package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pracsim/internal/fault"
)

func testOpts() Options {
	return Options{Schema: 3, Fingerprint: Fingerprint("test-session")}
}

func open(t *testing.T, path string, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

// TestRoundTrip: a closed journal replays exactly what was appended.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, rec := open(t, path, testOpts())
	if !rec.Fresh {
		t.Errorf("fresh journal reported non-fresh recovery: %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if err := j.AppendRun(fmt.Sprintf("run-%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := open(t, path, testOpts())
	defer j2.Close()
	if rec2.Fresh {
		t.Error("recovery of a populated journal reported fresh")
	}
	// open + 5 runs = 6
	if rec2.Records != 6 || rec2.TruncatedBytes != 0 {
		t.Errorf("recovery = %+v; want 6 records, 0 truncated", rec2)
	}
}

// TestTornTailTruncated: a partial frame at the tail (the crash-mid-
// append case) is cut off on open; every record before it survives.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, _ := open(t, path, testOpts())
	j.AppendRun("keep-1", []byte("a"))
	j.AppendRun("keep-2", []byte("b"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: half of a plausible next frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{40, 0, 0, 0, '{', '"', 't', '"'}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec := open(t, path, testOpts())
	defer j2.Close()
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Errorf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
	}
	if rec.Records != 3 {
		t.Errorf("replayed %d records, want open + keep-1 + keep-2", rec.Records)
	}
	// The truncated journal must be appendable and replayable again.
	if err := j2.AppendRun("after-repair", []byte("c")); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	j2.Close()
	j3, rec3 := open(t, path, testOpts())
	defer j3.Close()
	if rec3.Records != 4 || rec3.TruncatedBytes != 0 {
		t.Errorf("post-repair recovery = %+v; want 4 records, clean tail", rec3)
	}
}

// TestCorruptMidRecordTruncatesFrom: a bit flipped inside an interior
// record invalidates that record and everything after it — the valid
// prefix is kept, never a gap-toleration that could resurrect stale
// records out of order.
func TestCorruptMidRecordTruncatesFrom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, _ := open(t, path, testOpts())
	j.AppendRun("first", []byte(strings.Repeat("x", 100)))
	off := j.off // end of [open, first]
	j.AppendRun("second", []byte(strings.Repeat("y", 100)))
	j.AppendRun("third", []byte(strings.Repeat("z", 100)))
	j.Close()

	// Flip a byte inside "second"'s frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := open(t, path, testOpts())
	defer j2.Close()
	// Only [open, first] survive: a replayed "third" would mean recovery
	// skipped the corrupt record instead of truncating at it.
	if rec.Records != 2 {
		t.Errorf("replayed %d records, want 2 (open + first)", rec.Records)
	}
	if want := int64(len(data)) - off; rec.TruncatedBytes != want {
		t.Errorf("TruncatedBytes = %d, want %d (everything from the corrupt record on)", rec.TruncatedBytes, want)
	}
}

// TestFingerprintMismatchRotates: a journal from a session with
// different arguments is moved to *.stale, never replayed.
func TestFingerprintMismatchRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, _ := open(t, path, Options{Schema: 3, Fingerprint: Fingerprint("grid-A")})
	j.AppendRun("a-run", []byte("a"))
	j.Close()

	j2, rec := open(t, path, Options{Schema: 3, Fingerprint: Fingerprint("grid-B")})
	defer j2.Close()
	if !rec.Fresh || rec.Rotated == "" || rec.Records != 0 {
		t.Errorf("mismatched journal not rotated (or its records replayed): %+v", rec)
	}
	if _, err := os.Stat(path + ".stale"); err != nil {
		t.Errorf("stale journal not preserved: %v", err)
	}
}

// TestSchemaMismatchRotates: a schema bump orphans the journal the same
// way it orphans store entries.
func TestSchemaMismatchRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	fp := Fingerprint("same-args")
	j, _ := open(t, path, Options{Schema: 3, Fingerprint: fp})
	j.AppendRun("old-schema-run", []byte("a"))
	j.Close()

	j2, rec := open(t, path, Options{Schema: 4, Fingerprint: fp})
	defer j2.Close()
	if !rec.Fresh || !strings.Contains(rec.Rotated, "schema") {
		t.Errorf("schema-mismatched journal not rotated: %+v", rec)
	}
}

// TestGarbageFileRotates: a non-journal file at the path is rotated
// aside, not a fatal error.
func TestGarbageFileRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	if err := os.WriteFile(path, []byte("this is not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, rec := open(t, path, testOpts())
	defer j.Close()
	if !rec.Fresh || rec.Rotated == "" {
		t.Errorf("garbage file not rotated: %+v", rec)
	}
	if err := j.AppendRun("r", []byte("p")); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}
}

// TestAppendErrFault: journal.append:err fails the append cleanly — the
// journal stays usable and the record is simply not durable.
func TestAppendErrFault(t *testing.T) {
	p, err := fault.Parse("seed=1;journal.append:errx1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()

	path := filepath.Join(t.TempDir(), "s.journal")
	j, _ := open(t, path, testOpts())
	if err := j.AppendRun("victim", []byte("a")); err == nil {
		t.Fatal("injected append error not surfaced")
	}
	if err := j.AppendRun("survivor", []byte("b")); err != nil {
		t.Fatalf("append after injected error: %v", err)
	}
	j.Close()

	j2, rec := open(t, path, testOpts())
	defer j2.Close()
	if rec.Records != 2 {
		t.Errorf("replayed %d records, want open + survivor", rec.Records)
	}
	if rec.TruncatedBytes != 0 {
		t.Errorf("err-kind fault left bytes to truncate: %+v", rec)
	}
}

// TestAppendShortFault: journal.append:short lands a partial frame that
// the self-repair truncates immediately — later appends and the final
// file are clean.
func TestAppendShortFault(t *testing.T) {
	p, err := fault.Parse("seed=1;journal.append:shortx1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()

	path := filepath.Join(t.TempDir(), "s.journal")
	j, _ := open(t, path, testOpts())
	if err := j.AppendRun("victim", []byte("a")); err == nil {
		t.Fatal("injected short write not surfaced")
	}
	if err := j.AppendRun("survivor", []byte("b")); err != nil {
		t.Fatalf("append after self-repair: %v", err)
	}
	j.Close()

	j2, rec := open(t, path, testOpts())
	defer j2.Close()
	if rec.TruncatedBytes != 0 {
		t.Errorf("self-repaired journal still has a torn tail: %+v", rec)
	}
	if rec.Records != 2 {
		t.Errorf("replayed %d records, want open + survivor", rec.Records)
	}
}

// TestAppendTornFault: journal.append:torn is the crash simulation — a
// partial frame stays on disk, the journal stops accepting appends, and
// the next open truncates the tear and resumes from the valid prefix.
func TestAppendTornFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, _ := open(t, path, testOpts())
	j.AppendRun("before", []byte("a"))

	p, err := fault.Parse("seed=1;journal.append:tornx1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()
	if err := j.AppendRun("torn-victim", []byte("b")); err == nil {
		t.Fatal("injected torn write not surfaced")
	}
	if err := j.AppendRun("after", []byte("c")); err == nil {
		t.Fatal("append accepted after an unrepaired tear (would be unrecoverable)")
	}
	j.Close()

	j2, rec := open(t, path, testOpts())
	defer j2.Close()
	if rec.TruncatedBytes == 0 {
		t.Error("torn frame not truncated on recovery")
	}
	if rec.Records != 2 {
		t.Errorf("replayed %d records, want open + before", rec.Records)
	}
}

// TestSyncErrFaultRetries: a failed fsync leaves the journal usable and
// the next sync covers the same records.
func TestSyncErrFaultRetries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	// SyncEvery high enough that only explicit Syncs fire.
	j, _, err := Open(path, Options{Schema: 3, Fingerprint: Fingerprint("t"), SyncEvery: 1000, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p, err := fault.Parse("seed=1;journal.sync:errx1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	defer fault.Disable()

	j.AppendRun("r", []byte("p"))
	if err := j.Sync(); err == nil {
		t.Fatal("injected sync error not surfaced")
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("retried sync failed: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, rec := open(t, path, Options{Schema: 3, Fingerprint: Fingerprint("t")})
	defer j2.Close()
	if rec.Records != 2 {
		t.Errorf("record lost across a failed-then-retried sync: %+v", rec)
	}
}

// TestSyncBatching: appends below SyncEvery don't fsync; crossing the
// threshold does.
func TestSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, _, err := Open(path, Options{Schema: 3, Fingerprint: Fingerprint("t"), SyncEvery: 4, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// pending counts the appends since the last fsync; Open synced the
	// open record.
	unsynced := func() int {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.pending
	}
	for i := 0; i < 3; i++ {
		j.AppendRun(fmt.Sprintf("r%d", i), []byte("p"))
	}
	if got := unsynced(); got != 3 {
		t.Errorf("%d appends unsynced below the batch threshold, want 3", got)
	}
	j.AppendRun("r3", []byte("p"))
	if got := unsynced(); got != 0 {
		t.Errorf("batch threshold did not sync (%d appends unsynced)", got)
	}
}

// TestFingerprintStability: same parts, same fingerprint; any part
// changing moves it.
func TestFingerprintStability(t *testing.T) {
	a := Fingerprint("schema=3", "exp=fig12")
	if a != Fingerprint("schema=3", "exp=fig12") {
		t.Error("fingerprint not deterministic")
	}
	for _, other := range [][]string{
		{"schema=4", "exp=fig12"},
		{"schema=3", "exp=fig13"},
		{"schema=3"},
		{"schema=3", "exp", "=fig12"}, // separator must prevent gluing
	} {
		if Fingerprint(other...) == a {
			t.Errorf("fingerprint collision with %v", other)
		}
	}
}

// BenchmarkJournalAppend measures the hot append path (no explicit
// syncs; batching at the default cadence).
func BenchmarkJournalAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "s.journal")
	j, _, err := Open(path, Options{Schema: 3, Fingerprint: Fingerprint("bench"), SyncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := []byte(strings.Repeat("x", 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.AppendRun(fmt.Sprintf("run-%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalRecovery measures replaying a 1k-record journal.
func BenchmarkJournalRecovery(b *testing.B) {
	path := filepath.Join(b.TempDir(), "s.journal")
	opts := Options{Schema: 3, Fingerprint: Fingerprint("bench")}
	j, _, err := Open(path, opts)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte(strings.Repeat("x", 256))
	for i := 0; i < 1000; i++ {
		j.AppendRun(fmt.Sprintf("run-%d", i), payload)
	}
	j.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j2, rec, err := Open(path, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Records != 1001 {
			b.Fatalf("replayed %d records", rec.Records)
		}
		j2.Close()
	}
}

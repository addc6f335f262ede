package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pracsim/internal/fault"
)

// lcKey returns a fixed-width test key so every entry's encoded frame
// has the same size and eviction arithmetic is exact.
func lcKey(i int) string { return fmt.Sprintf("pracsim/run/v3/lc-%02d", i) }

// lcFrameSize is the on-disk size of one test entry.
func lcFrameSize(payload []byte) int64 { return int64(len(EncodeFrame(lcKey(0), payload))) }

// TestBudgetSweepEvictsLRU: opening an over-budget store sweeps the
// least-recently-used entries (by file mtime on a fresh index) down to
// the eviction target, and an evicted entry is a plain miss that a
// re-Put repairs.
func TestBudgetSweepEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	now := time.Now()
	for i := 0; i < n; i++ {
		if err := d.Put(lcKey(i), payload); err != nil {
			t.Fatal(err)
		}
		// Age the entries: lc-00 is the coldest, lc-09 the hottest.
		mt := now.Add(-time.Duration(n-i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, Hash(lcKey(i))+".run"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	size := lcFrameSize(payload)
	budget := 5 * size // half the footprint
	d2, err := OpenDiskWith(dir, DiskOptions{BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	d2.WaitSweeps()

	// over = 10s - 0.9*5s = 5.5s, so the sweep evicts the 6 coldest.
	for i := 0; i < 6; i++ {
		if _, err := d2.Get(lcKey(i)); !errors.Is(err, ErrNotFound) {
			t.Errorf("cold entry %d should be evicted; Get = %v", i, err)
		}
	}
	for i := 6; i < n; i++ {
		got, err := d2.Get(lcKey(i))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("warm entry %d should survive the sweep; Get = %v", i, err)
		}
	}
	ev := d2.EvictionStats()
	if ev.Budget != budget || ev.Evicted != 6 || ev.EvictedBytes != 6*size || ev.Sweeps < 1 {
		t.Errorf("eviction stats = %+v, want budget=%d evicted=6 bytes=%d sweeps>=1", ev, budget, 6*size)
	}
	if ev.Footprint != 4*size {
		t.Errorf("footprint = %d, want %d", ev.Footprint, 4*size)
	}
	// Recency lives in the entry files' mtimes: the sweep leaves nothing
	// but entry files behind.
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		if filepath.Ext(de.Name()) != ".run" {
			t.Errorf("sweep left a non-entry file %s in the store", de.Name())
		}
	}
	// An eviction is a miss a re-Put repairs.
	if err := d2.Put(lcKey(0), payload); err != nil {
		t.Fatal(err)
	}
	if got, err := d2.Get(lcKey(0)); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("re-Put after eviction did not restore the entry: %v", err)
	}
}

// TestReadRecencySurvivesReopen: a budgeted Get bumps the entry file's
// mtime, so an old-but-recently-read entry outlives younger-but-cold
// peers across a reopen.
func TestReadRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{0xCD}, 1024)
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	now := time.Now()
	for i := 0; i < n; i++ {
		if err := d.Put(lcKey(i), payload); err != nil {
			t.Fatal(err)
		}
		// lc-00 has the oldest mtime of all.
		mt := now.Add(-2 * time.Hour)
		if i > 0 {
			mt = now.Add(-1 * time.Hour)
		}
		if err := os.Chtimes(filepath.Join(dir, Hash(lcKey(i))+".run"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// A budgeted store (roomy enough not to sweep) reads lc-00 now.
	size := lcFrameSize(payload)
	d1, err := OpenDiskWith(dir, DiskOptions{BudgetBytes: 100 * size})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Get(lcKey(0)); err != nil {
		t.Fatal(err)
	}
	d1.WaitSweeps()

	d2, err := OpenDiskWith(dir, DiskOptions{BudgetBytes: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	d2.WaitSweeps()
	// over = 4s - 0.9*2s = 2.2s: the three unread entries go, the
	// mtime-oldest but just-read one stays.
	if got, err := d2.Get(lcKey(0)); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("recently read entry evicted across a reopen: %v", err)
	}
	for i := 1; i < n; i++ {
		if _, err := d2.Get(lcKey(i)); !errors.Is(err, ErrNotFound) {
			t.Errorf("cold entry %d survived a sweep that needed its bytes: %v", i, err)
		}
	}
}

// TestInjectedEvictIsMiss: the store.disk.evict failpoint evicts the
// entry under a read — the Get degrades to a miss, never an error, with
// or without a budget, and a re-Put repairs it.
func TestInjectedEvictIsMiss(t *testing.T) {
	for _, budget := range []int64{0, 1 << 30} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			p, err := fault.Parse("seed=1;store.disk.evict:evictx1")
			if err != nil {
				t.Fatal(err)
			}
			fault.Enable(p)
			defer fault.Disable()

			dir := t.TempDir()
			d, err := OpenDiskWith(dir, DiskOptions{BudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("evict-me")
			if err := d.Put(lcKey(0), payload); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Get(lcKey(0)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("injected eviction should read as a miss, got %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, Hash(lcKey(0))+".run")); !os.IsNotExist(err) {
				t.Errorf("entry file survived the injected eviction: %v", err)
			}
			if budget > 0 {
				if ev := d.EvictionStats(); ev.Evicted != 1 {
					t.Errorf("injected eviction not counted: %+v", ev)
				}
			}
			// The schedule is exhausted (x1): a re-Put restores service.
			if err := d.Put(lcKey(0), payload); err != nil {
				t.Fatal(err)
			}
			if got, err := d.Get(lcKey(0)); err != nil || !bytes.Equal(got, payload) {
				t.Errorf("re-Put after injected eviction: %v", err)
			}
		})
	}
}

// TestEvictionRaceNeverTearsReads hammers a tightly-budgeted store with
// concurrent writers, readers and sweeps under the race detector: every
// Get must return either the complete payload or ErrNotFound — an
// eviction mid-read degrades to a miss, never a torn frame (which would
// show up as a quarantine).
func TestEvictionRaceNeverTearsReads(t *testing.T) {
	const keys = 32
	payloadFor := func(k int) []byte { return bytes.Repeat([]byte{byte(k + 1)}, 1024) }
	size := lcFrameSize(payloadFor(0))
	d, err := OpenDiskWith(t.TempDir(), DiskOptions{BudgetBytes: 8 * size})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) { // writer
			defer wg.Done()
			for i := 0; i < 150; i++ {
				k := (g*37 + i) % keys
				if err := d.Put(lcKey(k), payloadFor(k)); err != nil {
					errCh <- fmt.Errorf("Put(%d): %w", k, err)
					return
				}
			}
		}(g)
		go func(g int) { // reader
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g*53 + i) % keys
				got, err := d.Get(lcKey(k))
				switch {
				case errors.Is(err, ErrNotFound):
				case err != nil:
					errCh <- fmt.Errorf("Get(%d): %w", k, err)
					return
				case !bytes.Equal(got, payloadFor(k)):
					errCh <- fmt.Errorf("Get(%d): wrong payload (%d bytes)", k, len(got))
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // concurrent synchronous sweeps
		defer wg.Done()
		for i := 0; i < 20; i++ {
			d.SweepNow()
		}
	}()
	wg.Wait()
	d.WaitSweeps()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if q := d.Quarantined(); q != 0 {
		t.Errorf("%d entries quarantined — an eviction raced a read into a torn frame", q)
	}
	if ev := d.EvictionStats(); ev.Evicted == 0 {
		t.Error("the budget never forced an eviction; the race test exercised nothing")
	}
}

// TestSweepSkipsPinnedEntries: an entry pinned by an in-flight operation
// is never selected, even when it is the coldest entry in an
// over-budget store.
func TestSweepSkipsPinnedEntries(t *testing.T) {
	payload := bytes.Repeat([]byte{0xEE}, 1024)
	size := lcFrameSize(payload)
	d, err := OpenDiskWith(t.TempDir(), DiskOptions{BudgetBytes: 4 * size})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Put(lcKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitSweeps()
	// Pin the coldest entry as a reader would, then blow the budget.
	cold := Hash(lcKey(0))
	d.lc.pin(cold)
	for i := 4; i < 8; i++ {
		if err := d.Put(lcKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	d.SweepNow()
	if _, err := d.Get(lcKey(0)); err != nil {
		t.Errorf("pinned entry was evicted: %v", err)
	}
	d.lc.unpin(cold)
	d.SweepNow()
	d.WaitSweeps()
	if ev := d.EvictionStats(); ev.Footprint > 4*size {
		t.Errorf("store still over budget after unpinned sweep: %+v", ev)
	}
}

// Package store is the persistent, content-addressed run store: a local
// directory of checksummed, self-validating entry files keyed by the
// hash of a canonical run key, layered under the in-process
// single-flight cache so warm results survive across tpracsim/pracleak
// invocations and CI passes.
//
// A thin Store front (traffic counters plus the degrade-to-miss
// contract) sits over the Disk backend. Sharing runs across machines is
// not this package's job: pracsimd deduplicates submitted grids against
// its own store and takes results in through pull-worker acks.
//
// The store is strictly a cache: every failure mode (missing file,
// truncated or bit-flipped entry, hash collision, unreadable directory)
// degrades to a miss and the caller recomputes — a corrupt or absent
// store can cost time, never correctness. Writes publish atomically
// (temp file + rename), so concurrent writers only ever publish
// complete, self-validating entries.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrNotFound marks the one expected Get/Stat/Delete outcome that is not
// a failure: the store simply has no entry for the key, so callers can
// tell a cold cache from a broken one.
var ErrNotFound = errors.New("store: entry not found")

// Info describes one stored entry, as reported by Stat and List. Size is
// payload bytes (the encoded result), not entry-file overhead.
type Info struct {
	Key     string
	Size    int64
	ModTime time.Time
}

// Stats counts store traffic as seen by the session: front hits and
// misses and payload bytes (not file overhead), plus the disk's own
// quarantine, sweep and eviction counters.
type Stats struct {
	Hits         int64
	Misses       int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	// Quarantined counts corrupt entries the disk moved aside (renamed
	// to *.quarantine) after they failed validation on read.
	Quarantined int64
	// TmpSwept counts orphaned put-*.tmp files (debris from a writer
	// killed mid-Put) the disk removed when it opened.
	TmpSwept int64
	// WritesDropped counts Puts the front discarded after the backing
	// storage reported itself full (see Store.Put's degrade contract).
	WritesDropped int64
	// Eviction is the disk's budget/eviction snapshot (zero when no
	// budget is configured).
	Eviction EvictionStats
}

// Store is the front every session talks to: it wraps a Disk with
// traffic counters and the degrade-to-miss contract (any disk error on
// Get reports a plain miss).
type Store struct {
	d *Disk

	// Warn, when set, receives the store's degrade warnings (one line
	// each, each condition at most once); nil means stderr. Set it before
	// first use.
	Warn func(msg string)

	hits, misses, writes, bytesRead, bytesWritten, writesDropped atomic.Int64
	writeOff                                                     atomic.Bool
}

// NewStore wraps a disk backend in the counting, degrading front.
func NewStore(d *Disk) *Store { return &Store{d: d} }

// Open creates (if needed) and returns a store over the disk backend
// rooted at dir.
func Open(dir string) (*Store, error) {
	d, err := OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	return NewStore(d), nil
}

// Disk returns the store's backend — the maintenance surface
// (Stat/List/Delete) lives there.
func (s *Store) Disk() *Disk { return s.d }

// Spec reports the -store argument that reopens this store: its
// directory. The dispatch driver forwards it to every pull child.
func (s *Store) Spec() string { return s.d.Dir() }

// DefaultDir is the store location when no explicit directory is given:
// the user cache directory (~/.cache/tpracsim on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: no user cache directory: %w", err)
	}
	return filepath.Join(base, "tpracsim"), nil
}

// ErrURLSpec rejects a -store argument shaped like a URL. The run store
// is a local directory; runs cross machines through pracsimd's job
// queue. CLIs exit 2 on it, as for any other bad flag value.
var ErrURLSpec = errors.New("the run store is a local directory; to share runs across machines, submit the grid to pracsimd and run `tpracsim -pull` workers")

// Resolve is the single entry point every CLI routes its -store flag
// through:
//
//   - "off", "none", "" — persistence disabled (nil store)
//   - "auto" — a disk store at DefaultDir
//   - a URL ("scheme://…") — rejected with ErrURLSpec, before anything
//     is created
//   - anything else — a disk store at that directory
//
// "auto" is best-effort: the store is strictly a cache, so when the user
// cache directory cannot be resolved or created (no $HOME in a CI
// container, a read-only home) it degrades to store-off and returns a
// one-line warning for the CLI to print instead of failing an
// invocation that never asked for that directory by name. An explicit
// directory still fails hard — the user asked for that location.
//
// opts is the disk tuning; -store-budget reaches the disk through it.
func Resolve(mode string, opts DiskOptions) (st *Store, warning string, err error) {
	switch mode {
	case "off", "none", "":
		return nil, "", nil
	case "auto":
		dir, derr := DefaultDir()
		if derr == nil {
			d, oerr := OpenDiskWith(dir, opts)
			if oerr == nil {
				return NewStore(d), "", nil
			}
			derr = oerr
		}
		return nil, fmt.Sprintf("run store disabled (%v); pass -store DIR to persist runs", derr), nil
	}
	if strings.Contains(mode, "://") {
		return nil, "", fmt.Errorf("-store %s: %w", mode, ErrURLSpec)
	}
	d, err := OpenDiskWith(mode, opts)
	if err != nil {
		return nil, "", err
	}
	return NewStore(d), "", nil
}

// Report renders the traffic summary the CLIs and the session telemetry
// print, so the format lives in one place.
func (st Stats) Report(spec string) string {
	out := fmt.Sprintf("store: %d hits, %d misses, %.1f KB read, %.1f KB written (%s)",
		st.Hits, st.Misses,
		float64(st.BytesRead)/1024, float64(st.BytesWritten)/1024, spec)
	if st.Quarantined > 0 {
		out += fmt.Sprintf("; quarantined %d corrupt entries", st.Quarantined)
	}
	if st.TmpSwept > 0 {
		out += fmt.Sprintf("; swept %d orphaned temp files", st.TmpSwept)
	}
	if ev := st.Eviction; ev.Budget > 0 {
		out += fmt.Sprintf("; budget %.1f/%.1f MB",
			float64(ev.Footprint)/(1<<20), float64(ev.Budget)/(1<<20))
		if ev.Evicted > 0 {
			out += fmt.Sprintf(", evicted %d entries (%.1f MB) in %d sweeps",
				ev.Evicted, float64(ev.EvictedBytes)/(1<<20), ev.Sweeps)
		}
	} else if ev.Evicted > 0 {
		// Budget-less but non-zero: injected evictions (chaos schedules).
		out += fmt.Sprintf("; evicted %d entries (injected)", ev.Evicted)
	}
	if st.WritesDropped > 0 {
		out += fmt.Sprintf("; store full, %d writes dropped", st.WritesDropped)
	}
	return out
}

// Stats snapshots the store's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		BytesRead:     s.bytesRead.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		Quarantined:   s.d.Quarantined(),
		TmpSwept:      s.d.TmpSwept(),
		WritesDropped: s.writesDropped.Load(),
		Eviction:      s.d.EvictionStats(),
	}
}

// Hash is the content address of a key: SHA-256 over the key string. The
// full key is stored inside the entry and verified on read, so even a
// hash collision degrades to a miss, not a wrong result.
func Hash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// Get returns the stored payload for key. Every failure mode — absent,
// truncated, corrupted, colliding, unreadable — reports (nil, false)
// and counts a miss; the caller recomputes and its Put replaces the bad
// entry.
func (s *Store) Get(key string) ([]byte, bool) {
	payload, err := s.d.Get(key)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(int64(len(payload)))
	return payload, true
}

// Put stores payload under key, atomically and durably. The last writer
// wins; with deterministic payloads all writers carry identical bytes.
//
// A disk that reports itself out of space (ENOSPC, quota, read-only
// filesystem, short write) does not fail the run: the store is strictly
// a cache, so Put degrades to store-off for the rest of the process —
// one warning line, every later write counted in Stats.WritesDropped,
// reads continuing to serve what was already stored.
func (s *Store) Put(key string, payload []byte) error {
	if s.writeOff.Load() {
		s.writesDropped.Add(1)
		return nil
	}
	if err := s.d.Put(key, payload); err != nil {
		if !isStorageFull(err) {
			return err
		}
		if s.writeOff.CompareAndSwap(false, true) {
			s.warnf("store: writes disabled for this process: %v (cached reads continue; new runs recompute)", err)
		}
		s.writesDropped.Add(1)
		return nil
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(payload)))
	return nil
}

func (s *Store) warnf(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	if s.Warn != nil {
		s.Warn(msg)
		return
	}
	fmt.Fprintln(os.Stderr, msg)
}

// isStorageFull classifies write failures that mean "this storage cannot
// take writes right now" rather than "this write was malformed".
func isStorageFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, syscall.EROFS) || errors.Is(err, io.ErrShortWrite)
}

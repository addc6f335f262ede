// Package store is the persistent, content-addressed run store: entries
// of checksummed, self-validating frames keyed by the hash of a
// canonical run key, layered under the in-process single-flight cache so
// warm results survive across tpracsim/pracleak invocations, CI passes
// and machines.
//
// The package splits into a thin Store front (traffic counters plus the
// degrade-to-miss contract) over pluggable backends:
//
//   - Disk — a local directory of entry files (the original store; the
//     on-disk format is unchanged)
//   - HTTP — a client for the store routes pracsimd serves (see
//     FrameHandler), so a whole dispatch fleet shares one warm store
//   - Tiered — a local Disk read-through cache over a remote, serving
//     hot keys locally and populating both on a remote hit
//
// The store is strictly a cache: every failure mode (missing file,
// truncated or bit-flipped entry, hash collision, unreadable directory,
// unreachable server, corrupt response) degrades to a miss and the
// caller recomputes — a corrupt or absent store can cost time, never
// correctness. Writes publish atomically (temp file + rename on disk,
// validated-frame PUT over HTTP), so concurrent writers only ever
// publish complete, self-validating entries.
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
)

// Stats counts store traffic as seen by the session: front hits and
// misses, payload bytes (not file or wire overhead), and — when the
// backend has a remote leg — the remote traffic underneath, so a tiered
// session shows how many hits the local cache absorbed versus how many
// crossed the network.
type Stats struct {
	Hits         int64
	Misses       int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	// Quarantined counts corrupt entries the disk tier moved aside
	// (renamed to *.quarantine) after they failed validation on read.
	Quarantined int64
	// TmpSwept counts orphaned put-*.tmp files (debris from a writer
	// killed mid-Put) the disk tier removed when it opened.
	TmpSwept int64
	// WritesDropped counts Puts the front discarded after the backing
	// storage reported itself full (see Store.Put's degrade contract).
	WritesDropped int64
	// Eviction is the disk tier's budget/eviction snapshot (zero when no
	// budget is configured).
	Eviction EvictionStats
	// Remote is the remote leg's wire traffic (zero for local-only
	// backends). Remote.Errors counts transport failures and corrupt
	// responses — every one degraded to a miss or a skipped write.
	Remote RemoteStats
}

// Store is the front every session talks to: it wraps a Backend with
// traffic counters and the degrade-to-miss contract (any backend error
// on Get reports a plain miss).
type Store struct {
	b Backend

	// Warn, when set, receives the store's degrade warnings (one line
	// each, each condition at most once); nil means stderr. Set it before
	// first use.
	Warn func(msg string)

	hits, misses, writes, bytesRead, bytesWritten, writesDropped atomic.Int64
	writeOff                                                     atomic.Bool
}

// NewStore wraps a backend in the counting, degrading front.
func NewStore(b Backend) *Store { return &Store{b: b} }

// Open creates (if needed) and returns a store over the disk backend
// rooted at dir.
func Open(dir string) (*Store, error) {
	d, err := OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	return NewStore(d), nil
}

// Backend returns the store's backend — the maintenance surface
// (Stat/List/Delete) lives there.
func (s *Store) Backend() Backend { return s.b }

// Spec reports the -store argument that reopens this store: a directory
// for disk stores, the server URL for remote and tiered ones. The
// dispatch driver forwards it to every pull child.
func (s *Store) Spec() string { return s.b.Spec() }

// DefaultDir is the store location when no explicit directory is given:
// the user cache directory (~/.cache/tpracsim on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: no user cache directory: %w", err)
	}
	return filepath.Join(base, "tpracsim"), nil
}

// IsRemoteSpec reports whether a -store argument names a store server
// (the pracsimd store routes) rather than a directory or a mode keyword.
func IsRemoteSpec(mode string) bool {
	return strings.HasPrefix(mode, "http://") || strings.HasPrefix(mode, "https://")
}

// Options combines the per-tier tuning a CLI's -store-* flags select:
// the disk options apply to whichever disk tier the mode resolves to
// ("auto", an explicit directory, or the local read-through cache under
// a remote), the HTTP options to the remote leg.
type Options struct {
	Disk DiskOptions
	HTTP HTTPOptions
}

// Resolve is the single entry point every CLI routes its -store flag
// through:
//
//   - "off", "none", "" — persistence disabled (nil store)
//   - "auto" — a disk store at DefaultDir
//   - "http://…" / "https://…" — a pracsimd daemon's store routes,
//     fronted by a local disk read-through cache under DefaultDir so hot
//     keys stay local
//   - anything else — a disk store at that directory
//
// "auto" and the remote local cache are best-effort: the store is
// strictly a cache, so when the user cache directory cannot be resolved
// or created (no $HOME in a CI container, a read-only home) "auto"
// degrades to store-off and a remote spec degrades to a pure remote
// store, each returning a one-line warning for the CLI to print instead
// of failing an invocation that never asked for that directory by name.
// An explicit directory or URL still fails hard — the user asked for
// that location.
//
// opts carries the per-tier tuning — how -store-budget, -store-timeout
// and -store-retries reach the backends.
func Resolve(mode string, opts Options) (st *Store, warning string, err error) {
	openDisk := func(dir string) (*Store, error) {
		d, err := OpenDiskWith(dir, opts.Disk)
		if err != nil {
			return nil, err
		}
		return NewStore(d), nil
	}
	switch mode {
	case "off", "none", "":
		return nil, "", nil
	case "auto":
		dir, derr := DefaultDir()
		if derr == nil {
			if st, err = openDisk(dir); err == nil {
				return st, "", nil
			}
			derr = err
		}
		return nil, fmt.Sprintf("run store disabled (%v); pass -store DIR to persist runs", derr), nil
	}
	if IsRemoteSpec(mode) {
		remote, err := OpenHTTPWith(mode, opts.HTTP)
		if err != nil {
			return nil, "", err
		}
		dir, derr := DefaultDir()
		if derr == nil {
			// Each remote gets its own cache directory, so two servers
			// (or a server and a plain "auto" store) never mix entries.
			local, oerr := OpenDiskWith(filepath.Join(dir, "remote-"+Hash(remote.Spec())[:16]), opts.Disk)
			if oerr == nil {
				return NewStore(NewTiered(local, remote)), "", nil
			}
			derr = oerr
		}
		return NewStore(remote),
			fmt.Sprintf("remote store %s: local read-through cache disabled (%v)", remote.Spec(), derr), nil
	}
	st, err = openDisk(mode)
	return st, "", err
}

// Report renders the traffic summary the CLIs and the session telemetry
// print, so the format lives in one place. Remote traffic appears only
// when the session actually touched a remote.
func (st Stats) Report(spec string) string {
	out := fmt.Sprintf("store: %d hits, %d misses, %.1f KB read, %.1f KB written (%s)",
		st.Hits, st.Misses,
		float64(st.BytesRead)/1024, float64(st.BytesWritten)/1024, spec)
	if st.Remote != (RemoteStats{}) {
		r := st.Remote
		out += fmt.Sprintf("; remote: %d hits, %d misses, %d errors, %.1f KB down, %.1f KB up",
			r.Hits, r.Misses, r.Errors,
			float64(r.BytesRead)/1024, float64(r.BytesWritten)/1024)
		if r.Retries > 0 {
			out += fmt.Sprintf(", %d retries", r.Retries)
		}
		if r.Skipped > 0 {
			out += fmt.Sprintf(", %d skipped (circuit open)", r.Skipped)
		}
	}
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
	st := Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		BytesRead:     s.bytesRead.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		WritesDropped: s.writesDropped.Load(),
	}
	if rs, ok := s.b.(remoteStatser); ok {
		st.Remote = rs.RemoteStats()
	}
	if q, ok := s.b.(quarantiner); ok {
		st.Quarantined = q.Quarantined()
	}
	if t, ok := s.b.(tmpSweeper); ok {
		st.TmpSwept = t.TmpSwept()
	}
	if e, ok := s.b.(evictionStatser); ok {
		st.Eviction = e.EvictionStats()
	}
	return st
}

// quarantiner is implemented by backends with a disk tier that moves
// corrupt entries aside (Disk itself, Tiered by delegation).
type quarantiner interface {
	Quarantined() int64
}

// tmpSweeper is implemented by backends with a disk tier that sweeps
// orphaned temp files at open (Disk itself, Tiered by delegation).
type tmpSweeper interface {
	TmpSwept() int64
}

// evictionStatser is implemented by backends with a budgeted disk tier
// (Disk itself, Tiered by delegation).
type evictionStatser interface {
	EvictionStats() EvictionStats
}

// Hash is the content address of a key: SHA-256 over the key string. The
// full key is stored inside the entry and verified on read, so even a
// hash collision degrades to a miss, not a wrong result.
func Hash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// Get returns the stored payload for key. Every failure mode — absent,
// truncated, corrupted, colliding, unreachable — reports (nil, false)
// and counts a miss; the caller recomputes and its Put replaces the bad
// entry.
func (s *Store) Get(key string) ([]byte, bool) {
	payload, err := s.b.Get(key)
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
// A backend that reports itself out of space (ENOSPC, quota, read-only
// filesystem, short write) does not fail the run: the store is strictly
// a cache, so Put degrades to store-off for the rest of the process —
// one warning line, every later write counted in Stats.WritesDropped,
// reads continuing to serve what was already stored.
func (s *Store) Put(key string, payload []byte) error {
	if s.writeOff.Load() {
		s.writesDropped.Add(1)
		return nil
	}
	if err := s.b.Put(key, payload); err != nil {
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

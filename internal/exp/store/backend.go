package store

import (
	"errors"
	"time"
)

// ErrNotFound marks the one expected Get/Stat/Delete outcome that is not
// a failure: the store simply has no entry for the key. Every backend
// returns exactly this error (wrapped or not) for an absent entry, so
// callers can tell a cold cache from a broken one.
var ErrNotFound = errors.New("store: entry not found")

// Info describes one stored entry, as reported by Stat and List. Size is
// payload bytes (the encoded result), not entry-file overhead.
type Info struct {
	Key     string    `json:"key"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// Backend is one storage implementation under the Store front: a local
// directory (Disk), a pracsimd store server (HTTP), or a local
// read-through cache over a remote (Tiered). All operations address entries by their
// full versioned run key; content addressing (SHA-256 of the key) is an
// implementation detail of the backends.
//
// Backends are safe for concurrent use. Get returns ErrNotFound for an
// absent entry and a descriptive error for anything else (corruption,
// transport failure); the Store front degrades both to a miss, so a
// backend never needs to hide a failure to honor the cache contract.
type Backend interface {
	// Get returns the validated payload stored under key.
	Get(key string) ([]byte, error)
	// Put atomically publishes payload under key, replacing any
	// previous entry; the write is not fsynced. Concurrent writers are
	// safe; the last one wins (with deterministic payloads all carry
	// identical bytes).
	Put(key string, payload []byte) error
	// Stat describes the entry under key without fetching its payload
	// to the caller.
	Stat(key string) (Info, error)
	// List enumerates every valid entry. Corrupt or foreign files are
	// skipped, not errors — List is the maintenance surface and must
	// work on the stores most in need of maintenance.
	List() ([]Info, error)
	// Delete removes the entry under key (ErrNotFound when absent).
	Delete(key string) error
	// Spec returns the -store argument that reopens this backend: the
	// directory for Disk, the base URL for HTTP and Tiered. The
	// dispatch driver forwards it to every pull child.
	Spec() string
}

// entryWalker is the optional streaming enumeration: backends that can
// deliver entries one at a time implement it, and the maintenance layer
// (Collect, Prune) prefers it over List so summarizing a million-entry
// store never materializes a million Infos.
type entryWalker interface {
	ListEach(fn func(Info) error) error
}

// ListEach streams b's entries to fn, using the backend's streaming
// enumeration when it has one and degrading to a materialized List
// otherwise. An error from fn stops the walk and is returned.
func ListEach(b Backend, fn func(Info) error) error {
	if w, ok := b.(entryWalker); ok {
		return w.ListEach(fn)
	}
	infos, err := b.List()
	if err != nil {
		return err
	}
	for _, info := range infos {
		if err := fn(info); err != nil {
			return err
		}
	}
	return nil
}

// RemoteStats counts a remote (HTTP) backend's wire traffic, kept apart
// from the front counters so a tiered session can show how many hits the
// local cache absorbed versus how many crossed the network — and how
// often the network failed.
type RemoteStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`
	Errors int64 `json:"errors"`
	// Skipped counts operations the client failed fast without dialing,
	// after consecutive transport failures opened its circuit breaker —
	// how a sweep against a black-holed server stays seconds, not
	// timeout-minutes.
	Skipped int64 `json:"skipped"`
	// Retries counts request attempts beyond each operation's first —
	// transient failures the retry policy absorbed before the operation
	// succeeded or degraded.
	Retries      int64 `json:"retries"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

// remoteStatser is implemented by backends with a remote leg (HTTP
// itself, Tiered by delegation); the Store front folds the snapshot into
// Stats.Remote.
type remoteStatser interface {
	RemoteStats() RemoteStats
}

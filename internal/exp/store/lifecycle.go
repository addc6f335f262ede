package store

import (
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// evictTarget is how far below the budget a sweep drains the store:
// evicting to exactly the budget would re-trigger a sweep on the very
// next Put, so each sweep frees a slack margin (10% of the budget).
const evictTarget = 0.9

// EvictionStats snapshots the lifecycle layer's counters. The zero value
// means "no budget configured".
type EvictionStats struct {
	// Budget is the configured disk budget in entry-file bytes (0 = no
	// budget, eviction disabled).
	Budget int64 `json:"budget,omitempty"`
	// Footprint is the tracked entry-file byte total.
	Footprint int64 `json:"footprint,omitempty"`
	// Evicted counts entries removed by budget sweeps and injected
	// evictions.
	Evicted int64 `json:"evicted,omitempty"`
	// EvictedBytes is their file-byte total.
	EvictedBytes int64 `json:"evicted_bytes,omitempty"`
	// Sweeps counts background eviction sweeps that ran.
	Sweeps int64 `json:"sweeps,omitempty"`
}

// lcEntry is one tracked entry: its file size and last access.
type lcEntry struct {
	size  int64
	atime int64 // unix seconds; coarse is fine for LRU
}

// lifecycle is the disk backend's self-regulation state, allocated only
// when a budget is configured — a budget-less Disk pays one nil check
// per operation (pinned by TestEvictionDisabledOverheadGuard).
type lifecycle struct {
	budget int64

	mu      sync.Mutex
	entries map[string]lcEntry // hash -> size/atime
	bytes   int64              // sum of tracked entry-file sizes
	pins    map[string]int     // in-flight Get/Put hashes a sweep must skip

	sweeping  atomic.Bool
	sweepMu   sync.Mutex
	sweepDone chan struct{} // closed when the latest background sweep ends

	evicted, evictedBytes, sweeps atomic.Int64
}

// stats snapshots the lifecycle counters.
func (lc *lifecycle) stats() EvictionStats {
	lc.mu.Lock()
	footprint := lc.bytes
	lc.mu.Unlock()
	return EvictionStats{
		Budget:       lc.budget,
		Footprint:    footprint,
		Evicted:      lc.evicted.Load(),
		EvictedBytes: lc.evictedBytes.Load(),
		Sweeps:       lc.sweeps.Load(),
	}
}

// rebuild scans the store directory and (re)builds the in-memory index
// from the entry files alone: sizes, and access times from the file
// mtimes (a write sets the mtime, and a budgeted Get bumps it).
func (lc *lifecycle) rebuild(dir string) {
	//praclint:allow failpoint open-time index rebuild; a failure leaves the budget tracker empty, which only delays eviction
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.entries = make(map[string]lcEntry, len(dirents))
	lc.bytes = 0
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".run") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		hash := strings.TrimSuffix(name, ".run")
		e := lcEntry{size: fi.Size(), atime: fi.ModTime().Unix()}
		lc.entries[hash] = e
		lc.bytes += e.size
	}
}

// touch records an access (or write) to an entry. size < 0 means "keep
// the tracked size" (reads); size >= 0 replaces it (writes).
func (lc *lifecycle) touch(hash string, size int64) {
	now := time.Now().Unix()
	lc.mu.Lock()
	e, ok := lc.entries[hash]
	if size >= 0 {
		lc.bytes += size - e.size
		e.size = size
	} else if !ok {
		// A read of an entry the index never saw (written by another
		// process sharing the directory): track it with an unknown size;
		// the next rebuild corrects it.
		e.size = 0
	}
	e.atime = now
	lc.entries[hash] = e
	lc.mu.Unlock()
}

// forget drops an entry from the index (deletes, quarantines, evictions
// by other processes discovered on read).
func (lc *lifecycle) forget(hash string) {
	lc.mu.Lock()
	if e, ok := lc.entries[hash]; ok {
		lc.bytes -= e.size
		delete(lc.entries, hash)
	}
	lc.mu.Unlock()
}

// pin marks a hash as in-flight: a sweep never evicts a pinned entry, so
// an entry mid-Put (or mid-read) cannot be selected while it is being
// produced or served.
func (lc *lifecycle) pin(hash string) {
	lc.mu.Lock()
	if lc.pins == nil {
		lc.pins = make(map[string]int)
	}
	lc.pins[hash]++
	lc.mu.Unlock()
}

func (lc *lifecycle) unpin(hash string) {
	lc.mu.Lock()
	if n := lc.pins[hash]; n <= 1 {
		delete(lc.pins, hash)
	} else {
		lc.pins[hash] = n - 1
	}
	lc.mu.Unlock()
}

// overBudget reports whether the tracked footprint exceeds the budget.
func (lc *lifecycle) overBudget() bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.bytes > lc.budget
}

// lcTouchGet, lcTouchPut, lcPin, lcUnpin and lcForget are the disk
// backend's lifecycle hooks: one nil check when no budget is configured.
//
// A budgeted read also bumps the entry file's mtime, which is the
// recency a reopened store rebuilds from. Best-effort: a failed bump
// (say, the entry was evicted since the read) costs only that recency.
func (d *Disk) lcTouchGet(hash string) {
	if d.lc != nil {
		d.lc.touch(hash, -1)
		now := time.Now()
		os.Chtimes(d.hashPath(hash), now, now)
	}
}

func (d *Disk) lcTouchPut(hash string, size int64) {
	if d.lc != nil {
		d.lc.touch(hash, size)
		d.maybeSweep()
	}
}

func (d *Disk) lcPin(hash string) {
	if d.lc != nil {
		d.lc.pin(hash)
	}
}

func (d *Disk) lcUnpin(hash string) {
	if d.lc != nil {
		d.lc.unpin(hash)
	}
}

func (d *Disk) lcForget(hash string) {
	if d.lc != nil {
		d.lc.forget(hash)
	}
}

// EvictionStats snapshots the lifecycle counters (zero without a
// budget).
func (d *Disk) EvictionStats() EvictionStats {
	if d.lc == nil {
		return EvictionStats{}
	}
	return d.lc.stats()
}

// evictEntry removes one entry as an eviction (budget sweep or the
// store.disk.evict failpoint): the file goes away, the index forgets it,
// and the counters record it. An eviction is always a future miss, never
// an error — a concurrent reader either read the complete file before
// the remove or sees ErrNotFound after it.
func (d *Disk) evictEntry(hash string, size int64) {
	if os.Remove(d.hashPath(hash)) != nil {
		return
	}
	if d.lc != nil {
		d.lc.forget(hash)
		d.lc.evicted.Add(1)
		d.lc.evictedBytes.Add(size)
	}
}

// injectEvict realizes the store.disk.evict failpoint: evict the entry
// under hash right now, whether or not a budget is configured. Absent
// entries are left alone — the read was already a miss.
func (d *Disk) injectEvict(hash string) {
	fi, err := os.Stat(d.hashPath(hash))
	if err != nil {
		return
	}
	d.evictEntry(hash, fi.Size())
}

// maybeSweep kicks off a background eviction sweep when the tracked
// footprint exceeds the budget and no sweep is already running.
func (d *Disk) maybeSweep() {
	lc := d.lc
	if lc == nil || lc.budget <= 0 || !lc.overBudget() {
		return
	}
	if !lc.sweeping.CompareAndSwap(false, true) {
		return
	}
	done := make(chan struct{})
	lc.sweepMu.Lock()
	lc.sweepDone = done
	lc.sweepMu.Unlock()
	go func() {
		defer close(done)
		defer lc.sweeping.Store(false)
		d.sweepOnce()
	}()
}

// waitSweep blocks until the latest background sweep has ended. (A
// WaitGroup cannot do this: Puts start sweeps while SweepNow waits, and
// a WaitGroup forbids an Add from zero concurrent with Wait.)
func (lc *lifecycle) waitSweep() {
	lc.sweepMu.Lock()
	done := lc.sweepDone
	lc.sweepMu.Unlock()
	if done != nil {
		<-done
	}
}

// SweepNow runs one eviction sweep synchronously — the maintenance
// entry point (tests and maintenance tools). It waits for any
// in-flight background sweep first so counters are stable afterwards.
func (d *Disk) SweepNow() {
	lc := d.lc
	if lc == nil {
		return
	}
	lc.waitSweep()
	if lc.sweeping.CompareAndSwap(false, true) {
		d.sweepOnce()
		lc.sweeping.Store(false)
	}
}

// WaitSweeps blocks until no background sweep is running — the test
// hook that makes eviction assertions deterministic.
func (d *Disk) WaitSweeps() {
	if d.lc != nil {
		d.lc.waitSweep()
	}
}

// sweepOnce evicts least-recently-accessed entries until the footprint
// is back under evictTarget x budget. Victims are re-checked under the
// lock just before removal: a pin (in-flight Put/Get) or an access
// newer than the snapshot skips the entry, so the sweep never races a
// writer into deleting what it just published.
func (d *Disk) sweepOnce() {
	lc := d.lc
	target := int64(float64(lc.budget) * evictTarget)

	type victim struct {
		hash  string
		size  int64
		atime int64
	}
	lc.mu.Lock()
	over := lc.bytes - target
	if over <= 0 {
		lc.mu.Unlock()
		return
	}
	victims := make([]victim, 0, len(lc.entries))
	for hash, e := range lc.entries {
		victims = append(victims, victim{hash, e.size, e.atime})
	}
	lc.mu.Unlock()
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].atime != victims[j].atime {
			return victims[i].atime < victims[j].atime
		}
		return victims[i].hash < victims[j].hash // deterministic within a second
	})

	lc.sweeps.Add(1)
	var freed int64
	for _, v := range victims {
		if freed >= over {
			break
		}
		lc.mu.Lock()
		e, ok := lc.entries[v.hash]
		pinned := lc.pins[v.hash] > 0
		lc.mu.Unlock()
		if !ok || pinned || e.atime > v.atime {
			continue // gone, in-flight, or touched since the snapshot
		}
		d.evictEntry(v.hash, e.size)
		freed += e.size
	}
}

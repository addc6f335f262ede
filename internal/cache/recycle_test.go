package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pracsim/internal/spare"
	"pracsim/internal/ticks"
)

// snapshot is c's state with its storage pointer, the MSHR fill
// closures and the capacity of empty buffers dropped: a closure is bound
// to its own slab, so two slabs' closures never compare equal, and a
// recycled slot or target buffer keeps the backing array it once grew.
func snapshot(c *Cache) Cache {
	s := *c
	s.state = nil
	s.mshrs = slab(c.mshrs)
	if len(s.targets) == 0 {
		s.targets = nil
	}
	return s
}

// slab is a copy of mshrs with each slot's fill dropped and an empty
// waiter list made nil.
func slab(mshrs []mshr) []mshr {
	s := append([]mshr(nil), mshrs...)
	for i := range s {
		s[i].fill = nil
		if len(s[i].waiters) == 0 {
			s[i].waiters = nil
		}
	}
	return s
}

// storage is ls with its slab normalized as slab does and its level
// pointer dropped.
func storage(ls *levelState) levelState {
	s := *ls
	s.mshrs = slab(ls.mshrs)
	s.level = nil
	if len(s.targets) == 0 {
		s.targets = nil
	}
	return s
}

// dirtyLevel builds a level of cfg with an IP-stride prefetcher and
// leaves every part of its storage non-zero: valid and dirty ways,
// advanced LRU clocks or aged RRPVs, trained prefetcher entries, and
// fetches still in flight with waiters that log into *log.
func dirtyLevel(t *testing.T, cfg Config, mem *pendingFetcher, log *[]ticks.T) *Cache {
	t.Helper()
	c := newLevel(t, cfg, mem)
	rng := rand.New(rand.NewSource(1))
	lines := uint64(cfg.Sets * cfg.Ways * 3)
	record := func(at ticks.T) { *log = append(*log, at) }
	for range 4000 {
		var done func(ticks.T)
		if rng.Intn(2) == 0 {
			done = record
		}
		c.Access(rng.Uint64()%lines, rng.Intn(3) == 0, uint64(rng.Intn(4))<<2, 0, done)
		if len(mem.done) > cfg.MSHRs/2 {
			mem.done[0](0)
			mem.done = mem.done[1:]
		}
	}
	// End on strided misses from one PC with every earlier fetch done:
	// they stay in flight with their waiters, train the prefetcher and
	// leave its last targets in the level's buffer.
	for _, f := range mem.done {
		f(0)
	}
	mem.done = mem.done[:0]
	for i := range uint64(4) {
		c.Access(lines+2*i, false, 0x40, 0, record)
	}
	var valid, dirty, meta, chains, waiting, trained int
	for w, k := range c.keys {
		if k != 0 {
			valid++
		}
		if c.dirty[w] {
			dirty++
		}
	}
	for _, m := range c.state.meta {
		if m != 0 {
			meta++
		}
	}
	for _, i := range c.inFlight {
		if i >= 0 {
			chains++
		}
	}
	for _, m := range c.mshrs {
		waiting += len(m.waiters)
	}
	for _, e := range c.prefetcher.entries {
		if e.valid {
			trained++
		}
	}
	if valid == 0 || dirty == 0 || meta == 0 || chains == 0 || waiting == 0 || trained == 0 || len(c.targets) == 0 {
		t.Fatalf("dirty level left fresh state: %d valid, %d dirty, %d metadata bytes, %d in-flight chains, %d waiters, %d prefetcher entries, %d targets",
			valid, dirty, meta, chains, waiting, trained, len(c.targets))
	}
	return c
}

// newLevel builds a level of cfg over next with an IP-stride prefetcher.
func newLevel(t *testing.T, cfg Config, next Fetcher) *Cache {
	t.Helper()
	c, err := New(cfg, next)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachIPStride(8, 2); err != nil {
		t.Fatal(err)
	}
	return c
}

// recycleCases are level shapes no other test builds, so a New of one
// of them finds spare storage only if a test here recycled it.
var recycleCases = []Config{
	{Name: "lru", Sets: 32, Ways: 6, Latency: 4, Repl: LRU, MSHRs: 8},
	{Name: "srrip", Sets: 32, Ways: 7, Latency: 4, Repl: SRRIP, MSHRs: 8},
}

// TestRecycledLevelMatchesFresh builds a level on the storage of a level
// recycled mid-run, with dirty lines, stamps or RRPVs, a trained
// prefetcher and fetches still in flight with waiters, and checks that
// it equals a freshly allocated level field for field, MSHR slab and
// prefetcher table included.
func TestRecycledLevelMatchesFresh(t *testing.T) {
	for _, cfg := range recycleCases {
		t.Run(cfg.Name, func(t *testing.T) {
			mem := &pendingFetcher{}
			var log []ticks.T
			old := dirtyLevel(t, cfg, mem, &log)
			ls, p := old.state, old.prefetcher
			old.Recycle()
			recycled := newLevel(t, cfg, mem)
			if recycled.state != ls || recycled.prefetcher != p {
				t.Fatal("New after Recycle allocated instead of taking the recycled storage")
			}
			fresh := newLevel(t, cfg, mem)
			if fresh.state == ls || fresh.prefetcher == p {
				t.Fatal("two levels share storage")
			}
			got, want := snapshot(recycled), snapshot(fresh)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("recycled level differs from a fresh one:\n got %+v\nwant %+v", got, want)
			}
			if g, w := storage(recycled.state), storage(fresh.state); !reflect.DeepEqual(g, w) {
				t.Errorf("recycled storage differs from a fresh one:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}

// fifoFetcher completes fetches in arrival order, one per step call, at
// the step's time.
type fifoFetcher struct{ pendingFetcher }

func (f *fifoFetcher) step(at ticks.T) {
	if len(f.done) > 0 {
		done := f.done[0]
		f.done = f.done[1:]
		done(at)
	}
}

// TestRecycledSlabMatchesFresh drives a level built on a recycled MSHR
// slab and a fresh level through the same access stream, with misses
// merging into in-flight fetches, and checks that both complete the same
// waiters at the same times with the same counters, and that none of the
// recycled level's waiters ever runs again: the slots that held them
// belong to the new level.
func TestRecycledSlabMatchesFresh(t *testing.T) {
	for _, cfg := range recycleCases {
		t.Run(cfg.Name, func(t *testing.T) {
			var oldLog []ticks.T
			old := dirtyLevel(t, cfg, &pendingFetcher{}, &oldLog)
			ls := old.state
			old.Recycle()
			stale := len(oldLog)
			run := func(c *Cache, mem *fifoFetcher) ([]string, Stats) {
				rng := rand.New(rand.NewSource(7))
				var log []string
				for i := range 3000 {
					line := rng.Uint64() % uint64(4*cfg.Sets)
					done := func(at ticks.T) { log = append(log, fmt.Sprintf("%d:%d", i, at)) }
					c.Access(line, rng.Intn(4) == 0, uint64(rng.Intn(4))<<2, ticks.T(i), done)
					if rng.Intn(3) == 0 {
						mem.step(ticks.T(i))
					}
				}
				for len(mem.done) > 0 {
					mem.step(4000)
				}
				return log, c.Stats()
			}
			recMem, freshMem := &fifoFetcher{}, &fifoFetcher{}
			recycled := newLevel(t, cfg, recMem)
			if recycled.state != ls {
				t.Fatal("New after Recycle allocated instead of taking the recycled storage")
			}
			gotLog, gotStats := run(recycled, recMem)
			wantLog, wantStats := run(newLevel(t, cfg, freshMem), freshMem)
			if len(oldLog) != stale {
				t.Errorf("%d waiters of the recycled level ran on the new one", len(oldLog)-stale)
			}
			if gotStats != wantStats {
				t.Errorf("recycled slab stats %+v, fresh %+v", gotStats, wantStats)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Errorf("recycled slab completed %d waiters, fresh %d; first difference at %d",
					len(gotLog), len(wantLog), firstDiff(gotLog, wantLog))
			}
		})
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRecycledLevelPanics checks that a recycled-away level cannot be
// used by mistake: every entry point, and a completion of a fetch it had
// in flight, panics instead of reading or writing storage that now
// belongs to another level, and a second Recycle does not hand the same
// storage out twice.
func TestRecycledLevelPanics(t *testing.T) {
	cfg := Config{Name: "gone", Sets: 16, Ways: 3, Latency: 1, Repl: LRU, MSHRs: 2}
	mem := &pendingFetcher{}
	c := newLevel(t, cfg, mem)
	c.Access(5, true, 0, 0, func(ticks.T) {})
	if len(mem.done) != 1 {
		t.Fatalf("%d fetches in flight, want 1", len(mem.done))
	}
	before := spare.Held()
	c.Recycle()
	c.Recycle()
	after := spare.Held()
	for _, name := range []string{"cache.level", "cache.ipstride"} {
		if n := after[name] - before[name]; n != 1 {
			t.Errorf("recycling one level twice added %d spare %s values, want 1", n, name)
		}
	}
	for name, use := range map[string]func(){
		"Access":    func() { c.Access(5, false, 0, 0, nil) },
		"Fetch":     func() { c.Fetch(6, 0, func(ticks.T) {}) },
		"WriteBack": func() { c.WriteBack(7, 0) },
		"fill":      func() { mem.done[0](10) },
	} {
		if !panics(use) {
			t.Errorf("%s on a recycled level did not panic", name)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

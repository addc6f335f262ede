package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"pracsim/internal/ticks"
)

// snapshot is c's state with the MSHR fill closures dropped: a closure
// is bound to its own level, so two levels' closures never compare
// equal.
func snapshot(c *Cache) Cache {
	s := *c
	s.mshrs = append([]mshr(nil), c.mshrs...)
	for i := range s.mshrs {
		s.mshrs[i].fill = nil
	}
	return s
}

// dirtyLevel builds a level of cfg and leaves every part of its way
// state non-zero: valid and dirty ways, advanced LRU clocks or aged
// RRPVs, and fetches still in flight.
func dirtyLevel(t *testing.T, cfg Config, mem *pendingFetcher) *Cache {
	t.Helper()
	c, err := New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	lines := uint64(cfg.Sets * cfg.Ways * 3)
	for range 4000 {
		c.Access(rng.Uint64()%lines, rng.Intn(3) == 0, 0, 0, nil)
		if len(mem.done) > cfg.MSHRs/2 {
			mem.done[0](0)
			mem.done = mem.done[1:]
		}
	}
	var valid, dirty, meta, chains int
	for w, k := range c.keys {
		if k != 0 {
			valid++
		}
		if c.dirty[w] {
			dirty++
		}
	}
	for _, m := range c.ways.meta {
		if m != 0 {
			meta++
		}
	}
	for _, i := range c.inFlight {
		if i >= 0 {
			chains++
		}
	}
	if valid == 0 || dirty == 0 || meta == 0 || chains == 0 {
		t.Fatalf("dirty level left fresh state: %d valid, %d dirty, %d metadata bytes, %d in-flight chains",
			valid, dirty, meta, chains)
	}
	return c
}

// TestRecycledLevelMatchesFresh builds a level on the way state of a
// level recycled mid-run, with dirty lines, stamps or RRPVs and fetches
// still in flight, and checks that it equals a freshly allocated level
// field for field. Each case uses a shape no other test builds, so the
// second New below finds no spare state and really allocates.
func TestRecycledLevelMatchesFresh(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "lru", Sets: 32, Ways: 6, Latency: 4, Repl: LRU, MSHRs: 8},
		{Name: "srrip", Sets: 32, Ways: 7, Latency: 4, Repl: SRRIP, MSHRs: 8},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			mem := &pendingFetcher{}
			old := dirtyLevel(t, cfg, mem)
			ws := old.ways
			old.Recycle()
			recycled, err := New(cfg, mem)
			if err != nil {
				t.Fatal(err)
			}
			if recycled.ways != ws {
				t.Fatal("New after Recycle allocated instead of taking the recycled way state")
			}
			fresh, err := New(cfg, mem)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.ways == ws {
				t.Fatal("two levels share one way state")
			}
			got, want := snapshot(recycled), snapshot(fresh)
			got.ways, want.ways = nil, nil // compared below, not as pointers
			if !reflect.DeepEqual(got, want) {
				t.Errorf("recycled level differs from a fresh one:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(*recycled.ways, *fresh.ways) {
				t.Errorf("recycled way state differs from a fresh one:\n got %+v\nwant %+v", *recycled.ways, *fresh.ways)
			}
		})
	}
}

// TestRecycledLevelPanics checks that a recycled-away level cannot be
// used by mistake: every entry point panics instead of reading or
// writing way state that now belongs to another level, and a second
// Recycle does not hand the same state out twice.
func TestRecycledLevelPanics(t *testing.T) {
	cfg := Config{Name: "gone", Sets: 16, Ways: 3, Latency: 1, Repl: LRU, MSHRs: 2}
	c, err := New(cfg, &fakeMem{latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(5, true, 0, 0, nil)
	c.Recycle()
	c.Recycle()
	shape := wayShape{cfg.Sets, cfg.Ways, cfg.Repl}
	spareWays.Lock()
	spare := len(spareWays.byShape[shape])
	spareWays.Unlock()
	if spare != 1 {
		t.Errorf("recycling one level twice left %d spare way states, want 1", spare)
	}
	for name, use := range map[string]func(){
		"Access":    func() { c.Access(5, false, 0, 0, nil) },
		"Fetch":     func() { c.Fetch(6, 0, func(ticks.T) {}) },
		"WriteBack": func() { c.WriteBack(7, 0) },
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

package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pracsim/internal/ticks"
)

// fakeMem is a downstream Fetcher with fixed latency.
type fakeMem struct {
	latency    ticks.T
	fetches    []uint64
	writebacks []uint64
	refuse     bool
}

func (f *fakeMem) Fetch(line uint64, now ticks.T, done func(ticks.T)) bool {
	if f.refuse {
		return false
	}
	f.fetches = append(f.fetches, line)
	done(now + f.latency)
	return true
}

func (f *fakeMem) WriteBack(line uint64, now ticks.T) bool {
	if f.refuse {
		return false
	}
	f.writebacks = append(f.writebacks, line)
	return true
}

func smallCache(t *testing.T, repl ReplKind, next Fetcher) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", Sets: 4, Ways: 2, Latency: 20, Repl: repl, MSHRs: 4}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMissThenHit(t *testing.T) {
	mem := &fakeMem{latency: 400}
	c := smallCache(t, LRU, mem)
	var first, second ticks.T
	if !c.Access(100, false, 0, 0, func(at ticks.T) { first = at }) {
		t.Fatal("access refused")
	}
	if first != 20+400+20 {
		t.Fatalf("miss completion = %v, want lookup+mem+fill = 440", first)
	}
	if !c.Access(100, false, 0, first, func(at ticks.T) { second = at }) {
		t.Fatal("access refused")
	}
	if second != first+20 {
		t.Fatalf("hit completion = %v, want %v", second, first+20)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.Hits, s.Misses)
	}
	if len(mem.fetches) != 1 {
		t.Fatalf("memory fetches = %d, want 1", len(mem.fetches))
	}
}

func TestMSHRMerging(t *testing.T) {
	mem := &fakeMem{latency: 400}
	// Delay the fill so both accesses overlap: use a manual fill control.
	var fill func(ticks.T)
	manual := &manualMem{onFetch: func(line uint64, now ticks.T, done func(ticks.T)) bool {
		fill = done
		return true
	}}
	c := smallCache(t, LRU, manual)
	done1, done2 := ticks.T(0), ticks.T(0)
	c.Access(7, false, 0, 0, func(at ticks.T) { done1 = at })
	c.Access(7, false, 0, 1, func(at ticks.T) { done2 = at })
	if got := c.Stats().MSHRMerges; got != 1 {
		t.Fatalf("MSHRMerges = %d, want 1", got)
	}
	if len(manual.fetched) != 1 {
		t.Fatalf("downstream fetches = %d, want 1 (merged)", len(manual.fetched))
	}
	fill(500)
	if done1 == 0 || done2 == 0 {
		t.Fatal("merged waiters not woken on fill")
	}
	_ = mem
}

type manualMem struct {
	onFetch func(uint64, ticks.T, func(ticks.T)) bool
	fetched []uint64
	wbs     []uint64
}

func (m *manualMem) Fetch(line uint64, now ticks.T, done func(ticks.T)) bool {
	ok := m.onFetch(line, now, done)
	if ok {
		m.fetched = append(m.fetched, line)
	}
	return ok
}
func (m *manualMem) WriteBack(line uint64, now ticks.T) bool {
	m.wbs = append(m.wbs, line)
	return true
}

func TestMSHRLimitStalls(t *testing.T) {
	manual := &manualMem{onFetch: func(uint64, ticks.T, func(ticks.T)) bool { return true }}
	c, err := New(Config{Name: "t", Sets: 4, Ways: 2, Latency: 1, Repl: LRU, MSHRs: 2}, manual)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Access(1, false, 0, 0, func(ticks.T) {}) {
		t.Fatal("first miss refused")
	}
	if !c.Access(2, false, 0, 0, func(ticks.T) {}) {
		t.Fatal("second miss refused")
	}
	if c.Access(3, false, 0, 0, func(ticks.T) {}) {
		t.Fatal("third miss accepted beyond MSHR limit")
	}
	if c.Stats().Stalls == 0 {
		t.Fatal("stall not counted")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem) // 4 sets, 2 ways
	// Three lines mapping to set 0: 0, 4, 8 (sets=4).
	c.Access(0, true, 0, 0, func(ticks.T) {}) // dirty
	c.Access(4, false, 0, 100, func(ticks.T) {})
	c.Access(8, false, 0, 200, func(ticks.T) {}) // evicts line 0 (LRU, dirty)
	if len(mem.writebacks) != 1 || mem.writebacks[0] != 0 {
		t.Fatalf("writebacks = %v, want [0]", mem.writebacks)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks stat = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	c.Access(0, false, 0, 0, func(ticks.T) {})
	c.Access(4, false, 0, 100, func(ticks.T) {})
	c.Access(8, false, 0, 200, func(ticks.T) {})
	if len(mem.writebacks) != 0 {
		t.Fatalf("clean eviction produced writebacks: %v", mem.writebacks)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	c.Access(0, false, 0, 0, func(ticks.T) {})
	c.Access(4, false, 0, 100, func(ticks.T) {})
	c.Access(0, false, 0, 200, func(ticks.T) {}) // refresh line 0
	c.Access(8, false, 0, 300, func(ticks.T) {}) // must evict 4, not 0
	hitsBefore := c.Stats().Hits
	c.Access(0, false, 0, 400, func(ticks.T) {})
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("line 0 evicted despite recent use")
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, SRRIP, mem)
	c.Access(0, false, 0, 0, func(ticks.T) {})
	c.Access(4, false, 0, 100, func(ticks.T) {})
	c.Access(0, false, 0, 200, func(ticks.T) {}) // rrpv(0) -> 0
	c.Access(8, false, 0, 300, func(ticks.T) {}) // should evict 4 (rrpv 2)
	hitsBefore := c.Stats().Hits
	c.Access(0, false, 0, 400, func(ticks.T) {})
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("SRRIP evicted the re-referenced line")
	}
}

func TestWriteAllocate(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	done := ticks.T(0)
	c.Access(3, true, 0, 0, func(at ticks.T) { done = at })
	if done == 0 {
		t.Fatal("write miss never completed")
	}
	if len(mem.fetches) != 1 {
		t.Fatalf("write miss fetches = %d, want 1 (write-allocate)", len(mem.fetches))
	}
	// Evict it: must write back because the fill was for a store.
	c.Access(7, false, 0, 100, func(ticks.T) {})
	c.Access(11, false, 0, 200, func(ticks.T) {})
	if len(mem.writebacks) != 1 {
		t.Fatalf("writebacks = %v, want the stored line", mem.writebacks)
	}
}

func TestWriteBackIntoCacheInstallsDirty(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	if !c.WriteBack(5, 0) {
		t.Fatal("WriteBack refused")
	}
	// Hit it and evict it; it must reach memory exactly once.
	c.Access(1, false, 0, 50, func(ticks.T) {})
	c.Access(9, false, 0, 100, func(ticks.T) {})
	c.Access(13, false, 0, 150, func(ticks.T) {})
	found := false
	for _, wb := range mem.writebacks {
		if wb == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("writebacks = %v, want to include line 5", mem.writebacks)
	}
}

func TestStackedLevels(t *testing.T) {
	mem := &fakeMem{latency: 400}
	l2, err := New(Config{Name: "l2", Sets: 16, Ways: 4, Latency: 40, Repl: LRU, MSHRs: 8}, mem)
	if err != nil {
		t.Fatal(err)
	}
	l1 := smallCache(t, LRU, l2)
	var at ticks.T
	l1.Access(42, false, 0, 0, func(a ticks.T) { at = a })
	if at != 20+40+400+40+20 {
		t.Fatalf("two-level miss completion = %v, want 520", at)
	}
	at = 0
	l1.Access(42, false, 0, 1000, func(a ticks.T) { at = a })
	if at != 1020 {
		t.Fatalf("L1 hit = %v, want 1020", at)
	}
	// Evict 42 from tiny L1; L2 should still hold it.
	l1.Access(46, false, 0, 2000, func(ticks.T) {})
	l1.Access(50, false, 0, 3000, func(ticks.T) {})
	at = 0
	l1.Access(42, false, 0, 4000, func(a ticks.T) { at = a })
	if at != 4000+20+40+20 {
		t.Fatalf("L2 hit completion = %v, want 4080", at)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	mem := &fakeMem{}
	for _, tc := range []struct {
		name string
		cfg  Config
		next Fetcher
	}{
		{"non-power-of-two sets", Config{Name: "x", Sets: 3, Ways: 1, MSHRs: 1}, mem},
		{"zero ways", Config{Name: "x", Sets: 4, Ways: 0, MSHRs: 1}, mem},
		{"255 ways, too many for 8-bit LRU ranks", Config{Name: "x", Sets: 4, Ways: 255, MSHRs: 1}, mem},
		{"zero MSHRs", Config{Name: "x", Sets: 4, Ways: 1, MSHRs: 0}, mem},
		{"nil downstream", Config{Name: "x", Sets: 4, Ways: 1, MSHRs: 1}, nil},
		{"unknown replacement policy", Config{Name: "x", Sets: 4, Ways: 1, MSHRs: 1, Repl: ReplKind(7)}, mem},
	} {
		if _, err := New(tc.cfg, tc.next); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := New(Config{Name: "x", Sets: 4, Ways: 254, MSHRs: 1}, mem); err != nil {
		t.Errorf("254 ways rejected: %v", err)
	}
}

// TestWideTagPanics checks that a line whose tag needs more than the
// 31 bits a way key holds panics instead of hitting the way its
// truncated key would alias, and that the widest tag that fits works.
func TestWideTagPanics(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	widest := c.Config().MaxLines() - uint64(c.Config().Sets) // set 0, tag 2^31-1
	for _, line := range []uint64{0, widest} {
		if !c.Access(line, true, 0, 0, nil) {
			t.Fatalf("access of line %#x refused", line)
		}
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("%d misses, want 2: the widest tag aliased line 0", s.Misses)
	}
	// Tags 2^31 and 2^32-1: truncated to 31 bits, they alias the resident
	// lines 0 and widest.
	for _, line := range []uint64{c.Config().MaxLines(), widest + c.Config().MaxLines()} {
		for name, call := range map[string]func(){
			"Access":    func() { c.Access(line, false, 0, 0, nil) },
			"Fetch":     func() { c.Fetch(line, 0, func(ticks.T) {}) },
			"WriteBack": func() { c.WriteBack(line, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%#x) did not panic", name, line)
					}
				}()
				call()
			}()
		}
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 || len(mem.writebacks) != 0 {
		t.Errorf("a wide tag reached the cache's state: %+v, writebacks %v", s, mem.writebacks)
	}
}

func TestIPStrideDetectsStride(t *testing.T) {
	p, err := NewIPStride(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400100)
	var got []uint64
	for i := uint64(0); i < 5; i++ {
		got = p.Observe(got[:0], pc, 100+i*3)
	}
	if len(got) != 2 || got[0] != 112+3 || got[1] != 112+6 {
		t.Fatalf("prefetch targets = %v, want [115 118]", got)
	}
}

func TestIPStrideIgnoresIrregular(t *testing.T) {
	p, err := NewIPStride(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400100)
	seq := []uint64{10, 90, 17, 4, 1000}
	var got []uint64
	for _, l := range seq {
		got = p.Observe(got[:0], pc, l)
	}
	if len(got) != 0 {
		t.Fatalf("irregular stream produced prefetches: %v", got)
	}
}

func TestIPStrideRejectsBadConfig(t *testing.T) {
	if _, err := NewIPStride(0, 1); err == nil {
		t.Error("zero table accepted")
	}
	if _, err := NewIPStride(63, 1); err == nil {
		t.Error("non-power-of-two table accepted")
	}
	if _, err := NewIPStride(64, 0); err == nil {
		t.Error("zero degree accepted")
	}
}

func TestPrefetcherFillsAhead(t *testing.T) {
	mem := &fakeMem{latency: 100}
	c, err := New(Config{Name: "l1", Sets: 64, Ways: 4, Latency: 10, Repl: LRU, MSHRs: 8}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachIPStride(64, 2); err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400200)
	now := ticks.T(0)
	for i := uint64(0); i < 8; i++ {
		c.Access(200+i, false, pc, now, func(ticks.T) {})
		now += 500
	}
	if c.Stats().Prefetches == 0 {
		t.Fatal("unit-stride stream triggered no prefetches")
	}
	// Later lines should now hit thanks to prefetching.
	hitsBefore := c.Stats().Hits
	c.Access(208, false, pc, now, func(ticks.T) {})
	if c.Stats().Hits != hitsBefore+1 {
		t.Error("prefetched line 208 was not a hit")
	}
}

// Property: a cache never loses dirty data — every store is eventually
// visible as either a resident dirty line or a downstream writeback.
func TestNoDirtyDataLossProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := &fakeMem{latency: 10}
		c, err := New(Config{Name: "p", Sets: 4, Ways: 2, Latency: 1, Repl: LRU, MSHRs: 64}, mem)
		if err != nil {
			return false
		}
		stored := map[uint64]bool{}
		now := ticks.T(0)
		for i := 0; i < int(n)+1; i++ {
			line := uint64(rng.Intn(32))
			write := rng.Intn(2) == 0
			if write {
				stored[line] = true
			}
			c.Access(line, write, 0, now, func(ticks.T) {})
			now += 100
		}
		// Flush by thrashing every set with clean lines.
		for line := uint64(1000); line < 1000+64; line++ {
			c.Access(line, false, 0, now, func(ticks.T) {})
			now += 100
		}
		wb := map[uint64]bool{}
		for _, l := range mem.writebacks {
			wb[l] = true
		}
		for line := range stored {
			if !wb[line] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// pendingFetcher accepts fetches but never completes them.
type pendingFetcher struct{ done []func(ticks.T) }

func (p *pendingFetcher) Fetch(line uint64, now ticks.T, done func(ticks.T)) bool {
	p.done = append(p.done, done)
	return true
}
func (p *pendingFetcher) WriteBack(uint64, ticks.T) bool { return true }

// TestCacheIsAlwaysQuiescent pins the cache's role in the demand-driven
// clocking protocol: it never schedules work of its own, even with
// fetches outstanding — those belong to the downstream clock domain.
func TestCacheIsAlwaysQuiescent(t *testing.T) {
	next := &pendingFetcher{}
	c := smallCache(t, LRU, next)
	if got := c.NextWork(0); got != ticks.Never {
		t.Fatalf("NextWork = %v on an empty cache, want Never", got)
	}
	if !c.Access(1, false, 0, 0, func(ticks.T) {}) {
		t.Fatal("access refused")
	}
	if got := c.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	if got := c.NextWork(5); got != ticks.Never {
		t.Fatalf("NextWork = %v with an outstanding fetch, want Never", got)
	}
	next.done[0](100)
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after fill, want 0", got)
	}
}

package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pracsim/internal/ticks"
)

// event is one observable effect of a cache operation: a downstream
// fetch (refused, filled synchronously or held), a downstream writeback,
// or a waiter's completion.
type event struct {
	kind string
	line uint64 // the line, or the completing operation's number
	at   ticks.T
}

// diffMem is the downstream of one side of TestMatchesReferenceModel.
// Both sides' stubs are seeded alike, so while the two caches make the
// same calls the stubs make the same choices: refuse a fetch, fill it
// synchronously, or hold it for the driver to complete later, in any
// order.
type diffMem struct {
	rng  *rand.Rand
	log  []event
	held []func(ticks.T)
}

func (m *diffMem) Fetch(line uint64, now ticks.T, done func(ticks.T)) bool {
	switch r := m.rng.Intn(10); {
	case r < 2:
		m.log = append(m.log, event{"refuse", line, now})
		return false
	case r < 4:
		m.log = append(m.log, event{"sync", line, now})
		done(now + ticks.T(1+m.rng.Intn(40)))
	default:
		m.log = append(m.log, event{"hold", line, now})
		m.held = append(m.held, done)
	}
	return true
}

func (m *diffMem) WriteBack(line uint64, now ticks.T) bool {
	m.log = append(m.log, event{"wb", line, now})
	return true
}

// TestMatchesReferenceModel drives the flat Cache and the per-way-struct,
// map-indexed reference model with one seeded random stream of demand
// accesses (with stride-forming PCs, so the prefetcher fires), upper-level
// fetches and writebacks, and out-of-order fill completions, and checks
// after every operation that both return the same, make the same
// downstream calls, complete the same waiters at the same times, count
// the same Stats and hold the same lines.
//
// In the "hierarchy" streams a writeback never names a line the level is
// still fetching, as in a hierarchy of private caches, and no set may
// ever hold a tag twice. The "wb-in-flight" streams drop that rule: the
// fill then installs a second copy of the written-back line, in both
// models alike.
func TestMatchesReferenceModel(t *testing.T) {
	for _, tc := range []struct {
		name       string
		repl       ReplKind
		wbInFlight bool
	}{
		{"LRU/hierarchy", LRU, false},
		{"LRU/wb-in-flight", LRU, true},
		{"SRRIP/hierarchy", SRRIP, false},
		{"SRRIP/wb-in-flight", SRRIP, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var total Stats
			wbPending := 0
			for seed := int64(1); seed <= 8; seed++ {
				s, n := matchReference(t, tc.repl, tc.wbInFlight, seed, 3000)
				total.Hits += s.Hits
				total.Misses += s.Misses
				total.MSHRMerges += s.MSHRMerges
				total.Writebacks += s.Writebacks
				total.Prefetches += s.Prefetches
				total.Stalls += s.Stalls
				wbPending += n
			}
			t.Logf("%+v, %d writebacks of in-flight lines", total, wbPending)
			if total.Hits == 0 || total.Misses == 0 || total.MSHRMerges == 0 || total.Writebacks == 0 || total.Prefetches == 0 || total.Stalls == 0 {
				t.Errorf("streams left a path unexercised: %+v", total)
			}
			if tc.wbInFlight && wbPending == 0 {
				t.Error("no writeback ever named an in-flight line")
			}
		})
	}
}

// matchReference runs one stream and returns the final Stats and how
// many writebacks named a line in flight.
func matchReference(t *testing.T, repl ReplKind, wbInFlight bool, seed int64, steps int) (Stats, int) {
	t.Helper()
	cfg := Config{Name: "diff", Sets: 8, Ways: 4, Latency: 3, Repl: repl, MSHRs: 4}
	refMem := &diffMem{rng: rand.New(rand.NewSource(seed))}
	newMem := &diffMem{rng: rand.New(rand.NewSource(seed))}
	ref := newRef(cfg, refMem)
	c, err := New(cfg, newMem)
	if err != nil {
		t.Fatal(err)
	}
	if ref.prefetcher, err = NewIPStride(16, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachIPStride(16, 2); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	const universe = 3 * 8 * 4 // three lines per way: plenty of conflicts
	pcs := []uint64{0x400100, 0x400200, 0x400300, 0x400400}
	cursor := []uint64{0, 10, 20}
	stride := []uint64{1, 3, 8}
	done := func(mem *diffMem, op int) func(ticks.T) {
		return func(at ticks.T) { mem.log = append(mem.log, event{"done", uint64(op), at}) }
	}
	now, wbPending := ticks.T(0), 0
	for op := 0; op < steps; op++ {
		now += ticks.T(rng.Intn(5))
		var desc string
		var refOK, newOK bool
		switch r := rng.Intn(100); {
		case r < 45:
			// The first three PCs walk strided streams, the last one
			// accesses at random.
			p := rng.Intn(len(pcs))
			line := uint64(rng.Intn(universe))
			if p < len(pcs)-1 {
				cursor[p] = (cursor[p] + stride[p]) % (2 * universe)
				line = cursor[p]
			}
			write := rng.Intn(3) == 0
			refDone, newDone := done(refMem, op), done(newMem, op)
			if rng.Intn(10) == 0 {
				refDone, newDone = nil, nil
			}
			desc = fmt.Sprintf("Access(%d, write=%v, pc=%#x)", line, write, pcs[p])
			refOK = ref.Access(line, write, pcs[p], now, refDone)
			newOK = c.Access(line, write, pcs[p], now, newDone)
		case r < 60:
			line := uint64(rng.Intn(universe))
			desc = fmt.Sprintf("Fetch(%d)", line)
			refOK = ref.Fetch(line, now, done(refMem, op))
			newOK = c.Fetch(line, now, done(newMem, op))
		case r < 70:
			line := uint64(rng.Intn(universe))
			if _, inFlight := ref.pending[line]; inFlight {
				if !wbInFlight {
					continue
				}
				wbPending++
			}
			desc = fmt.Sprintf("WriteBack(%d)", line)
			refOK = ref.WriteBack(line, now)
			newOK = c.WriteBack(line, now)
		default:
			if len(refMem.held) == 0 {
				continue
			}
			j := rng.Intn(len(refMem.held))
			at := now + ticks.T(rng.Intn(60))
			desc = fmt.Sprintf("complete held fetch %d of %d at %v", j, len(refMem.held), at)
			refFill, newFill := refMem.held[j], newMem.held[j]
			refMem.held = slices.Delete(refMem.held, j, j+1)
			newMem.held = slices.Delete(newMem.held, j, j+1)
			refFill(at)
			newFill(at)
			refOK, newOK = true, true
		}
		where := fmt.Sprintf("seed %d op %d %s", seed, op, desc)
		if refOK != newOK {
			t.Fatalf("%s: returned %v, reference %v", where, newOK, refOK)
		}
		if !slices.Equal(newMem.log, refMem.log) {
			t.Fatalf("%s: downstream/completion log diverged\n got: %v\nwant: %v", where, newMem.log, refMem.log)
		}
		if len(newMem.held) != len(refMem.held) {
			t.Fatalf("%s: %d held fetches, reference %d", where, len(newMem.held), len(refMem.held))
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%s: stats %+v, reference %+v", where, c.Stats(), ref.stats)
		}
		if got, want := c.InFlight(), len(ref.mshrs)-len(ref.free); got != want {
			t.Fatalf("%s: InFlight %d, reference %d", where, got, want)
		}
		checkSameLines(t, where, c, ref, !wbInFlight)
		// Both logs matched: start the next comparison from empty.
		refMem.log, newMem.log = refMem.log[:0], newMem.log[:0]
	}
	return c.Stats(), wbPending
}

// checkSameLines compares the resident lines, way by way, and, if unique
// is set, checks that no set holds a tag twice.
func checkSameLines(t *testing.T, where string, c *Cache, ref *refCache, unique bool) {
	t.Helper()
	for s, set := range ref.sets {
		for w, l := range set {
			i := s*c.cfg.Ways + w
			var want uint64
			if l.valid {
				want = l.tag<<1 | 1
			}
			if c.keys[i] != want || c.dirty[i] != l.dirty {
				t.Fatalf("%s: set %d way %d holds key %#x dirty %v, reference %+v", where, s, w, c.keys[i], c.dirty[i], l)
			}
		}
		if !unique {
			continue
		}
		keys := c.keys[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
		for w, k := range keys {
			if k != 0 && slices.Contains(keys[w+1:], k) {
				t.Fatalf("%s: set %d holds tag %d twice: keys %v", where, s, k>>1, keys)
			}
		}
	}
}

// refCache is the reference model TestMatchesReferenceModel checks Cache
// against: the straightforward layout the flat one replaced, with one
// struct per way and a map from line address to in-flight MSHR slot. It
// is kept deliberately naive; only its observable behaviour matters.
type refCache struct {
	cfg      Config
	sets     [][]refLine
	setShift uint
	next     Fetcher

	mshrs   []refMSHR
	free    []int
	pending map[uint64]int
	lruTick uint64

	prefetcher *IPStride
	targets    []uint64

	stats Stats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
	rrpv  uint8
}

type refMSHR struct {
	line    uint64
	waiters []func(at ticks.T)
	write   bool
	fill    func(at ticks.T)
}

func newRef(cfg Config, next Fetcher) *refCache {
	sets := make([][]refLine, cfg.Sets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	shift := uint(0)
	for 1<<shift < cfg.Sets {
		shift++
	}
	c := &refCache{
		cfg:      cfg,
		sets:     sets,
		setShift: shift,
		next:     next,
		mshrs:    make([]refMSHR, cfg.MSHRs),
		free:     make([]int, cfg.MSHRs),
		pending:  map[uint64]int{},
	}
	for i := range c.mshrs {
		c.mshrs[i].fill = func(at ticks.T) { c.fill(i, at) }
		c.free[i] = len(c.mshrs) - 1 - i
	}
	return c
}

func (c *refCache) setOf(lineAddr uint64) []refLine { return c.sets[lineAddr&uint64(c.cfg.Sets-1)] }
func (c *refCache) tagOf(lineAddr uint64) uint64    { return lineAddr >> c.setShift }
func (c *refCache) lineOf(tag, lineAddr uint64) uint64 {
	return tag<<c.setShift | lineAddr&uint64(c.cfg.Sets-1)
}

func (c *refCache) Access(lineAddr uint64, write bool, pc uint64, now ticks.T, done func(at ticks.T)) bool {
	ok := c.access(lineAddr, write, now, done, false)
	if ok && c.prefetcher != nil {
		c.targets = c.prefetcher.Observe(c.targets[:0], pc, lineAddr)
		for _, target := range c.targets {
			if c.access(target, false, now, nil, true) {
				c.stats.Prefetches++
			}
		}
	}
	return ok
}

func (c *refCache) access(lineAddr uint64, write bool, now ticks.T, done func(at ticks.T), prefetch bool) bool {
	set := c.setOf(lineAddr)
	tag := c.tagOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.touch(&set[i])
			if write {
				set[i].dirty = true
			}
			if !prefetch {
				c.stats.Hits++
			}
			if done != nil {
				done(now + c.cfg.Latency)
			}
			return true
		}
	}
	if prefetch {
		if len(c.free) == 0 {
			return false
		}
		if _, pending := c.pending[lineAddr]; pending {
			return false
		}
	}
	if i, pending := c.pending[lineAddr]; pending {
		m := &c.mshrs[i]
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		m.write = m.write || write
		if !prefetch {
			c.stats.Misses++
			c.stats.MSHRMerges++
		}
		return true
	}
	if len(c.free) == 0 {
		c.stats.Stalls++
		return false
	}
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	m := &c.mshrs[i]
	m.line, m.write = lineAddr, write
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.pending[lineAddr] = i
	if !c.next.Fetch(lineAddr, now+c.cfg.Latency, m.fill) {
		delete(c.pending, lineAddr)
		c.release(i)
		c.stats.Stalls++
		return false
	}
	if !prefetch {
		c.stats.Misses++
	}
	return true
}

func (c *refCache) release(i int) {
	m := &c.mshrs[i]
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	c.free = append(c.free, i)
}

func (c *refCache) fill(i int, at ticks.T) {
	m := &c.mshrs[i]
	lineAddr := m.line
	delete(c.pending, lineAddr)
	set := c.setOf(lineAddr)
	victim := c.pickVictim(set)
	if victim.valid && victim.dirty {
		if !c.next.WriteBack(c.lineOf(victim.tag, lineAddr), at) {
			panic(fmt.Sprintf("cache %s: writeback refused by downstream", c.cfg.Name))
		}
		c.stats.Writebacks++
	}
	victim.valid = true
	victim.dirty = m.write
	victim.tag = c.tagOf(lineAddr)
	c.insertMeta(victim)
	for _, w := range m.waiters {
		w(at + c.cfg.Latency)
	}
	c.release(i)
}

func (c *refCache) touch(l *refLine) {
	switch c.cfg.Repl {
	case LRU:
		c.lruTick++
		l.lru = c.lruTick
	case SRRIP:
		l.rrpv = 0
	}
}

func (c *refCache) insertMeta(l *refLine) {
	switch c.cfg.Repl {
	case LRU:
		c.lruTick++
		l.lru = c.lruTick
	case SRRIP:
		l.rrpv = srripMax - 1
	}
}

func (c *refCache) pickVictim(set []refLine) *refLine {
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	switch c.cfg.Repl {
	case LRU:
		victim := &set[0]
		for i := 1; i < len(set); i++ {
			if set[i].lru < victim.lru {
				victim = &set[i]
			}
		}
		return victim
	case SRRIP:
		for {
			for i := range set {
				if set[i].rrpv >= srripMax {
					return &set[i]
				}
			}
			for i := range set {
				set[i].rrpv++
			}
		}
	default:
		panic("cache: unknown replacement policy")
	}
}

func (c *refCache) Fetch(lineAddr uint64, now ticks.T, done func(at ticks.T)) bool {
	return c.access(lineAddr, false, now, done, false)
}

func (c *refCache) WriteBack(lineAddr uint64, now ticks.T) bool {
	set := c.setOf(lineAddr)
	tag := c.tagOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			c.touch(&set[i])
			return true
		}
	}
	victim := c.pickVictim(set)
	if victim.valid && victim.dirty {
		if !c.next.WriteBack(c.lineOf(victim.tag, lineAddr), now) {
			panic(fmt.Sprintf("cache %s: writeback refused by downstream", c.cfg.Name))
		}
		c.stats.Writebacks++
	}
	victim.valid = true
	victim.dirty = true
	victim.tag = tag
	c.insertMeta(victim)
	return true
}

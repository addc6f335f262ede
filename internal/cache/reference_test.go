package cache

import (
	"encoding/binary"
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
			wbPending, wraps := 0, 0
			cfg := Config{Name: "diff", Sets: 8, Ways: 4, Latency: 3, Repl: tc.repl, MSHRs: 4}
			for seed := int64(1); seed <= 8; seed++ {
				run := matchReference(t, cfg, tc.wbInFlight, rand.New(rand.NewSource(seed)), seed, 3000)
				s := run.stats
				total.Hits += s.Hits
				total.Misses += s.Misses
				total.MSHRMerges += s.MSHRMerges
				total.Writebacks += s.Writebacks
				total.Prefetches += s.Prefetches
				total.Stalls += s.Stalls
				wbPending += run.wbPending
				for _, n := range run.wraps {
					wraps += n
				}
			}
			t.Logf("%+v, %d writebacks of in-flight lines, %d LRU clock renumberings", total, wbPending, wraps)
			if total.Hits == 0 || total.Misses == 0 || total.MSHRMerges == 0 || total.Writebacks == 0 || total.Prefetches == 0 || total.Stalls == 0 {
				t.Errorf("streams left a path unexercised: %+v", total)
			}
			if tc.wbInFlight && wbPending == 0 {
				t.Error("no writeback ever named an in-flight line")
			}
		})
	}
}

// TestLRUStampWrap drives single-set LRU levels far past the range of
// their 8-bit clocks beside the reference model's never-wrapping 64-bit
// stamps. Victims, downstream calls and resident keys must stay
// identical through every renumbering.
func TestLRUStampWrap(t *testing.T) {
	for _, ways := range []int{8, 12, 16} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			cfg := Config{Name: "wrap", Sets: 1, Ways: ways, Latency: 3, Repl: LRU, MSHRs: 4}
			seed := int64(ways)
			run := matchReference(t, cfg, false, rand.New(rand.NewSource(seed)), seed, 4000)
			t.Logf("%+v, clock renumbered %d times", run.stats, run.wraps[0])
			if s := run.stats; s.Hits == 0 || s.Misses == 0 || s.Writebacks == 0 {
				t.Errorf("stream left a path unexercised: %+v", s)
			}
			if run.wraps[0] < 5 {
				t.Errorf("clock renumbered %d times, want at least 5", run.wraps[0])
			}
		})
	}
}

// FuzzCacheMatchesReference decodes arbitrary bytes into the operation
// streams of TestMatchesReferenceModel and plays each on an LRU level
// and an SRRIP level beside the reference model, in both of that test's
// writeback modes. The first 8 bytes seed the downstream stubs. The LRU
// level has one set, so an input of a few hundred touches wraps its
// clock. Inputs are capped at 1 KiB to keep each run, and so the
// fuzzer's minimization of a new input, short.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(hammerStream(300))
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		var seed [8]byte
		copy(seed[:], data)
		memSeed := int64(binary.LittleEndian.Uint64(seed[:]))
		ops := data[min(8, len(data)):]
		for _, cfg := range []Config{
			{Name: "lru", Sets: 1, Ways: 8, Latency: 3, Repl: LRU, MSHRs: 4},
			{Name: "srrip", Sets: 8, Ways: 4, Latency: 3, Repl: SRRIP, MSHRs: 4},
		} {
			for _, wbInFlight := range []bool{false, true} {
				src := byteSource(ops)
				matchReference(t, cfg, wbInFlight, &src, memSeed, len(ops)/3)
			}
		}
	})
}

// hammerStream encodes ops operations on the fuzz LRU level's one set,
// in matchReference's draw order: seven writebacks to each demand read
// or write from the random PC, over sixteen lines, so the 8-way set
// keeps evicting. Every operation draws all of its choices, so the
// encoding stays aligned whatever the stubs do. It completes no fetch,
// so once the MSHRs hold their fetches only hits, synchronous fills and
// writebacks change the set. 300 operations wrap the set's clock in
// both writeback modes.
func hammerStream(ops int) []byte {
	data := make([]byte, 8)
	for op := 0; op < ops; op++ {
		line := byte(2 * (op * 5 % 16)) // cycles over all sixteen lines
		if op%8 != 0 {
			data = append(data, 1, 65, line) // WriteBack
		} else {
			data = append(data, 1, 0, 3, line, byte(op%3), 1) // Access, a write if op%3 == 0
		}
	}
	return data
}

// intner supplies matchReference's choices: a seeded *rand.Rand, or a
// fuzz input read through byteSource.
type intner interface{ Intn(n int) int }

// byteSource reads one choice per byte, as the byte modulo the number of
// outcomes, so every choice may have at most 256 outcomes. An exhausted
// input reads as zeros.
type byteSource []byte

func (b *byteSource) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// lazy is a failure message's text, formatted only if a check fails: the
// streams run thousands of operations that must not each pay for fmt.
type lazy func() string

func (f lazy) String() string { return f() }

// refRun is what one matchReference stream reached.
type refRun struct {
	stats     Stats
	wbPending int   // writebacks that named a line in flight
	wraps     []int // per set: LRU clock renumberings (nil under SRRIP)
}

// matchReference plays steps operations, chosen by src, on a cfg level and
// on the reference model; memSeed seeds both downstream stubs. Each
// operation draws, in order: a time step (5), an operation kind (100),
// then for a demand access a PC (4), a line (3*Sets*Ways, replaced by the
// PC's cursor unless it is the last PC), a write (3) and whether to drop
// the waiter (10); for a fetch or a writeback a line; for a completion,
// if a fetch is held, which one and its delay (60).
func matchReference(t *testing.T, cfg Config, wbInFlight bool, src intner, memSeed int64, steps int) refRun {
	t.Helper()
	refMem := &diffMem{rng: rand.New(rand.NewSource(memSeed))}
	newMem := &diffMem{rng: rand.New(rand.NewSource(memSeed))}
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

	universe := 3 * cfg.Sets * cfg.Ways // three lines per way: plenty of conflicts
	run := refRun{}
	var clock []uint8 // the LRU clocks after the previous operation
	if c.clock != nil {
		run.wraps = make([]int, cfg.Sets)
		clock = make([]uint8, cfg.Sets)
	}
	pcs := []uint64{0x400100, 0x400200, 0x400300, 0x400400}
	cursor := []uint64{0, 10, 20}
	stride := []uint64{1, 3, 8}
	done := func(mem *diffMem, op int) func(ticks.T) {
		return func(at ticks.T) { mem.log = append(mem.log, event{"done", uint64(op), at}) }
	}
	now := ticks.T(0)
	for op := 0; op < steps; op++ {
		now += ticks.T(src.Intn(5))
		var desc lazy
		var refOK, newOK bool
		switch r := src.Intn(100); {
		case r < 45:
			// The first three PCs walk strided streams, the last one
			// accesses at random.
			p := src.Intn(len(pcs))
			line := uint64(src.Intn(universe))
			if p < len(pcs)-1 {
				cursor[p] = (cursor[p] + stride[p]) % uint64(2*universe)
				line = cursor[p]
			}
			write := src.Intn(3) == 0
			refDone, newDone := done(refMem, op), done(newMem, op)
			if src.Intn(10) == 0 {
				refDone, newDone = nil, nil
			}
			pc := pcs[p]
			desc = func() string { return fmt.Sprintf("Access(%d, write=%v, pc=%#x)", line, write, pc) }
			refOK = ref.Access(line, write, pc, now, refDone)
			newOK = c.Access(line, write, pc, now, newDone)
		case r < 60:
			line := uint64(src.Intn(universe))
			desc = func() string { return fmt.Sprintf("Fetch(%d)", line) }
			refOK = ref.Fetch(line, now, done(refMem, op))
			newOK = c.Fetch(line, now, done(newMem, op))
		case r < 70:
			line := uint64(src.Intn(universe))
			if _, inFlight := ref.pending[line]; inFlight {
				if !wbInFlight {
					continue
				}
				run.wbPending++
			}
			desc = func() string { return fmt.Sprintf("WriteBack(%d)", line) }
			refOK = ref.WriteBack(line, now)
			newOK = c.WriteBack(line, now)
		default:
			if len(refMem.held) == 0 {
				continue
			}
			j := src.Intn(len(refMem.held))
			at := now + ticks.T(src.Intn(60))
			n := len(refMem.held)
			desc = func() string { return fmt.Sprintf("complete held fetch %d of %d at %v", j, n, at) }
			refFill, newFill := refMem.held[j], newMem.held[j]
			refMem.held = slices.Delete(refMem.held, j, j+1)
			newMem.held = slices.Delete(newMem.held, j, j+1)
			refFill(at)
			newFill(at)
			refOK, newOK = true, true
		}
		where := lazy(func() string { return fmt.Sprintf("seed %d op %d %s", memSeed, op, desc) })
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
		// A renumbering rewinds a clock from its top to at most Ways, and
		// one operation touches a set only a few times, so a clock that
		// went down was renumbered.
		for s := range clock {
			if c.clock[s] < clock[s] {
				run.wraps[s]++
			}
		}
		copy(clock, c.clock)
	}
	run.stats = c.Stats()
	return run
}

// checkSameLines compares the resident lines, way by way, and, if unique
// is set, checks that no set holds a tag twice.
func checkSameLines(t *testing.T, where fmt.Stringer, c *Cache, ref *refCache, unique bool) {
	t.Helper()
	for s, set := range ref.sets {
		for w, l := range set {
			i := s*c.cfg.Ways + w
			var want uint32
			if l.valid {
				want = uint32(l.tag)<<1 | 1
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
// struct per way, a map from line address to in-flight MSHR slot, 64-bit
// tags and one global, never-wrapping 64-bit LRU counter. It is kept
// deliberately naive; only its observable behaviour matters.
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

// Package cache implements the simulated cache hierarchy: set-associative
// caches with LRU or SRRIP replacement, MSHR-based miss handling with miss
// merging, write-back/write-allocate semantics, and an IP-stride prefetcher.
//
// Timing is functional: a lookup either completes at a computed future time
// (hit) or turns into a fetch from the next level whose completion time
// flows back through callbacks. All levels are single-threaded, driven by
// the core/engine clock.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"pracsim/internal/spare"
	"pracsim/internal/ticks"
)

// Fetcher is anything that can supply cache lines: a lower cache level or
// the memory-controller adapter.
type Fetcher interface {
	// Fetch requests a line; done runs when data is available, with the
	// completion time. It reports false if the request cannot be
	// accepted right now (MSHRs or queues full) — the caller must retry.
	Fetch(line uint64, now ticks.T, done func(at ticks.T)) bool

	// WriteBack hands a dirty line downstream. It reports false if the
	// request cannot be accepted right now.
	WriteBack(line uint64, now ticks.T) bool
}

// ReplKind selects the replacement policy.
type ReplKind int

const (
	// LRU evicts the least recently used way.
	LRU ReplKind = iota
	// SRRIP is static re-reference interval prediction (Jaleel et al.,
	// ISCA'10), the paper's LLC policy.
	SRRIP
)

// Config describes one cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency ticks.T // lookup latency added on the hit path
	Repl    ReplKind
	MSHRs   int
}

// KB is a convenience for sizing caches in bytes.
const KB = 1024

// SetsFor computes the set count for a capacity/associativity/line size.
func SetsFor(capacityBytes, ways, lineBytes int) int {
	return capacityBytes / (ways * lineBytes)
}

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	MSHRMerges int64
	Writebacks int64
	Prefetches int64
	Stalls     int64 // rejected accesses (MSHR/downstream full)
}

// mshr is one slot of a level's miss-handling slab. Slots are recycled,
// never freed: waiters keeps its capacity across misses and fill is
// bound to the slot once, when its slab is built, so a miss allocates
// nothing.
type mshr struct {
	line    uint64
	waiters []func(at ticks.T)
	write   bool             // at least one merged request was a store
	next    int32            // next in-flight slot of the same set, or -1
	fill    func(at ticks.T) // completes this slot's fetch in the slab's current level
}

// Cache is one level of the hierarchy.
//
// Way state is flat: way w of set s lives at index s*Ways+w of keys,
// dirty and the policy's metadata array. A way's key is the 32-bit
// tag<<1|1 while it holds a line and 0 while it is empty, so a hit test
// is one compare per way and a 16-way set's keys fill one 64-byte host
// line. A tag must therefore fit in 31 bits: keyOf panics on a wider one
// rather than alias another line, and callers bound their line addresses
// by MaxLines.
//
// LRU recency is per set: each set has an 8-bit clock, and a touch stamps
// the way with the set's next clock value, so a set's valid ways always
// hold distinct stamps whose order is their recency order. Before the
// clock would wrap, renumber rewrites the set's stamps as ranks 1..k in
// the same order, so victim choice matches a global, never-wrapping LRU
// counter.
type Cache struct {
	cfg      Config
	setShift uint // log2(Sets): a line address's tag is the bits above it
	next     Fetcher

	keys  []uint32 // per way: tag<<1|1 if valid, 0 if empty
	dirty []bool   // per way
	lru   []uint8  // per way, LRU only: the set's clock at the last touch
	clock []uint8  // per set, LRU only: the set's last stamp
	rrpv  []uint8  // per way, SRRIP only: re-reference prediction value

	mshrs    []mshr  // the slab: cfg.MSHRs slots
	free     []int   // idle slab slots, used as a stack
	inFlight []int32 // per set: first slot of its chain of in-flight fetches, or -1

	state *levelState // owns every slice above, mshrs and targets; nil once recycled

	prefetcher *IPStride
	targets    []uint64 // prefetcher output buffer, reused every access

	stats Stats
}

const (
	srripMax = 3 // 2-bit RRPV

	// maxWays bounds associativity so that a set's renumbered LRU ranks
	// (at most maxWays) leave room in a uint8 for the next touch.
	maxWays = math.MaxUint8 - 1

	maxTag = 1<<31 - 1 // the widest tag a 32-bit way key holds
)

// MaxLines returns how many line addresses a level with cfg's set count
// can hold: every address below it has a tag of at most 31 bits.
func (cfg Config) MaxLines() uint64 { return uint64(cfg.Sets) * (maxTag + 1) }

// levelState is the storage behind a level: its way arrays and its MSHR
// slab. Levels of one shape hand it on through spareLevels, so a process
// that builds level after level (an experiment grid) allocates it once
// per concurrently live level instead of once per level. The slab's fill
// closures complete into level, which New points at the level it builds,
// so they are bound once per levelState.
type levelState struct {
	keys     []uint32
	dirty    []bool
	meta     []uint8 // LRU: a stamp per way, then a clock per set; SRRIP: an RRPV per way
	inFlight []int32
	mshrs    []mshr
	free     []int
	targets  []uint64
	level    *Cache // the level the fill closures complete into; nil while spare
}

// levelShape identifies the levels that can share a levelState.
type levelShape struct {
	sets, ways int
	repl       ReplKind
	mshrs      int
}

// spareLevels holds the storage of recycled levels, a stack per shape.
var spareLevels = spare.New[levelShape, *levelState]("cache.level")

// newLevelState allocates the storage of a level of shape and binds its
// fill closures.
func newLevelState(shape levelShape) *levelState {
	n := shape.sets * shape.ways
	meta := n
	if shape.repl == LRU {
		meta += shape.sets
	}
	ls := &levelState{
		keys:     make([]uint32, n),
		dirty:    make([]bool, n),
		meta:     make([]uint8, meta),
		inFlight: make([]int32, shape.sets),
		mshrs:    make([]mshr, shape.mshrs),
		free:     make([]int, 0, shape.mshrs),
	}
	for i := range ls.mshrs {
		ls.mshrs[i].fill = func(at ticks.T) { ls.level.fill(i, at) }
	}
	return ls
}

// takeLevel returns storage for a level of shape, recycled if a level of
// that shape was recycled earlier: empty ways, no set with a fetch in
// flight and every slab slot free, slot 0 on top.
func takeLevel(shape levelShape) *levelState {
	ls, ok := spareLevels.Take(shape)
	if ok {
		clear(ls.keys)
		clear(ls.dirty)
		clear(ls.meta)
	} else {
		ls = newLevelState(shape)
	}
	for s := range ls.inFlight {
		ls.inFlight[s] = -1
	}
	ls.free = ls.free[:0]
	for i := len(ls.mshrs) - 1; i >= 0; i-- {
		ls.free = append(ls.free, i)
	}
	return ls
}

// Recycle hands the level's storage, and its prefetcher's, to the next
// New of the same shape. Every fetch still in flight is dropped with its
// waiters: a completion bound to the slab must not reach the next level
// that takes it, so whatever downstream still holds one of this level's
// fills (a lower level's MSHR, a controller queue) must be recycled or
// dropped with it. The level must not be used again: its storage is gone,
// so any access panics. Recycling a level twice is a no-op.
func (c *Cache) Recycle() {
	ls := c.state
	if ls == nil {
		return
	}
	for i := range ls.mshrs {
		m := &ls.mshrs[i]
		clear(m.waiters)
		m.line, m.waiters, m.write, m.next = 0, m.waiters[:0], false, 0
	}
	ls.level = nil
	ls.targets = c.targets[:0] // keep the buffer Access grew
	if c.prefetcher != nil {
		c.prefetcher.recycle()
		c.prefetcher = nil
	}
	c.state = nil
	c.keys, c.dirty, c.lru, c.clock, c.rrpv = nil, nil, nil, nil, nil
	c.mshrs, c.free, c.inFlight, c.targets = nil, nil, nil, nil
	spareLevels.Put(levelShape{c.cfg.Sets, c.cfg.Ways, c.cfg.Repl, c.cfg.MSHRs}, ls)
}

// New builds a cache level over the given downstream fetcher.
func New(cfg Config, next Fetcher) (*Cache, error) {
	switch {
	case next == nil:
		return nil, fmt.Errorf("cache %s: downstream fetcher required", cfg.Name)
	case cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0:
		return nil, fmt.Errorf("cache %s: sets (%d) must be a positive power of two", cfg.Name, cfg.Sets)
	case cfg.Ways <= 0 || cfg.Ways > maxWays:
		return nil, fmt.Errorf("cache %s: ways (%d) must be in [1, %d]", cfg.Name, cfg.Ways, maxWays)
	case cfg.MSHRs <= 0:
		return nil, fmt.Errorf("cache %s: MSHRs must be positive", cfg.Name)
	case cfg.Latency < 0:
		return nil, fmt.Errorf("cache %s: negative latency", cfg.Name)
	case cfg.Repl != LRU && cfg.Repl != SRRIP:
		return nil, fmt.Errorf("cache %s: unknown replacement policy %d", cfg.Name, int(cfg.Repl))
	}
	n := cfg.Sets * cfg.Ways
	ls := takeLevel(levelShape{cfg.Sets, cfg.Ways, cfg.Repl, cfg.MSHRs})
	c := &Cache{
		cfg:      cfg,
		setShift: uint(bits.TrailingZeros(uint(cfg.Sets))),
		next:     next,
		keys:     ls.keys,
		dirty:    ls.dirty,
		mshrs:    ls.mshrs,
		free:     ls.free,
		inFlight: ls.inFlight,
		targets:  ls.targets,
		state:    ls,
	}
	if cfg.Repl == LRU {
		c.lru, c.clock = ls.meta[:n:n], ls.meta[n:]
	} else {
		c.rrpv = ls.meta
	}
	ls.level = c
	return c, nil
}

// AttachIPStride enables an IP-stride prefetcher on this level.
func (c *Cache) AttachIPStride(tableSize, degree int) error {
	p, err := NewIPStride(tableSize, degree)
	if err != nil {
		return err
	}
	c.prefetcher = p
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// InFlight reports how many MSHRs are occupied by outstanding fetches.
func (c *Cache) InFlight() int { return len(c.mshrs) - len(c.free) }

// NextWork implements the demand-driven clocking protocol for the cache
// hierarchy: caches are purely reactive — every lookup, fill and
// writeback runs inside the caller's cycle, and completions are delivered
// through callbacks — so a cache never schedules work of its own and is
// always quiescent from the clock's point of view. Outstanding MSHRs
// (see InFlight) are the downstream clock domain's work, not this one's.
func (c *Cache) NextWork(ticks.T) ticks.T { return ticks.Never }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// setOf returns a line address's set index.
func (c *Cache) setOf(lineAddr uint64) int { return int(lineAddr & uint64(c.cfg.Sets-1)) }

// keyOf returns the way key a line address is stored under. A tag too
// wide for the key panics: truncating it would alias another line.
func (c *Cache) keyOf(lineAddr uint64) uint32 {
	tag := lineAddr >> c.setShift
	if tag > maxTag {
		panic(wideTagError{c, lineAddr})
	}
	return uint32(tag)<<1 | 1
}

// wideTagError is keyOf's panic value. Formatting the message in Error,
// not in keyOf, keeps keyOf small enough to inline.
type wideTagError struct {
	c    *Cache
	line uint64
}

func (e wideTagError) Error() string {
	return fmt.Sprintf("cache %s: line %#x has a tag wider than 31 bits (%d sets hold at most %d lines)",
		e.c.cfg.Name, e.line, e.c.cfg.Sets, e.c.cfg.MaxLines())
}

// lineOf rebuilds the address of the line stored under key in set.
func (c *Cache) lineOf(key uint32, set int) uint64 { return uint64(key>>1)<<c.setShift | uint64(set) }

// lookup returns the way index holding key in set, or -1.
func (c *Cache) lookup(set int, key uint32) int {
	base := set * c.cfg.Ways
	for w, k := range c.keys[base : base+c.cfg.Ways] {
		if k == key {
			return base + w
		}
	}
	return -1
}

// pending returns the slab slot fetching lineAddr into set, or -1.
func (c *Cache) pending(set int, lineAddr uint64) int {
	for i := c.inFlight[set]; i >= 0; i = c.mshrs[i].next {
		if c.mshrs[i].line == lineAddr {
			return int(i)
		}
	}
	return -1
}

// unlink removes slot i from set's in-flight chain.
func (c *Cache) unlink(set, i int) {
	p := &c.inFlight[set]
	for int(*p) != i {
		p = &c.mshrs[*p].next
	}
	*p = c.mshrs[i].next
}

// Access performs a demand access from above (core or upper level). pc is
// the accessing instruction's address, used by the prefetcher. It reports
// false if the access cannot be accepted right now.
func (c *Cache) Access(lineAddr uint64, write bool, pc uint64, now ticks.T, done func(at ticks.T)) bool {
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

func (c *Cache) access(lineAddr uint64, write bool, now ticks.T, done func(at ticks.T), prefetch bool) bool {
	set := c.setOf(lineAddr)
	if w := c.lookup(set, c.keyOf(lineAddr)); w >= 0 {
		if c.touch(set, w) {
			return c.renumberedHit(set, w, write, now, done, prefetch)
		}
		return c.hit(w, write, now, done, prefetch)
	}
	p := c.pending(set, lineAddr)
	if prefetch && (len(c.free) == 0 || p >= 0) {
		// Prefetches are best-effort: drop rather than stall.
		return false
	}
	// Miss: merge into an existing MSHR if the line is already in flight.
	if p >= 0 {
		m := &c.mshrs[p]
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
	// Register before fetching: a downstream hit may complete (and fill)
	// synchronously, and fill must find the MSHR it is retiring.
	m.next, c.inFlight[set] = c.inFlight[set], int32(i)
	if !c.next.Fetch(lineAddr, now+c.cfg.Latency, m.fill) {
		c.unlink(set, i)
		c.release(i)
		c.stats.Stalls++
		return false
	}
	if !prefetch {
		c.stats.Misses++
	}
	return true
}

// hit finishes an access that found its line in way w.
func (c *Cache) hit(w int, write bool, now ticks.T, done func(at ticks.T), prefetch bool) bool {
	if write {
		c.dirty[w] = true
	}
	if !prefetch {
		c.stats.Hits++
	}
	if done != nil {
		done(now + c.cfg.Latency)
	}
	return true
}

// renumberedHit renumbers set, whose clock the hit on way w filled, and
// finishes the hit. Calling it in tail position keeps the common hit
// path free of spills around the renumbering call.
func (c *Cache) renumberedHit(set, w int, write bool, now ticks.T, done func(at ticks.T), prefetch bool) bool {
	c.renumber(set)
	return c.hit(w, write, now, done, prefetch)
}

// release returns slot i to the free stack, dropping its waiters but
// keeping their backing array for the next miss.
func (c *Cache) release(i int) {
	m := &c.mshrs[i]
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	c.free = append(c.free, i)
}

// fill installs the line fetched by slot i, then wakes all merged
// waiters. The slot returns to the free stack only after its waiters
// ran, so their slice is never reused underneath the loop.
func (c *Cache) fill(i int, at ticks.T) {
	m := &c.mshrs[i]
	set := c.setOf(m.line)
	c.unlink(set, i)
	c.install(set, c.keyOf(m.line), m.write, at)
	for _, w := range m.waiters {
		w(at + c.cfg.Latency)
	}
	c.release(i)
}

// install places key in set, evicting (and writing back) a victim as
// needed.
func (c *Cache) install(set int, key uint32, dirty bool, at ticks.T) {
	w := c.pickVictim(set)
	if c.keys[w] != 0 && c.dirty[w] {
		if !c.next.WriteBack(c.lineOf(c.keys[w], set), at) {
			// Caches always accept writebacks and the MC adapter
			// buffers them, so a refusal is a wiring bug, not a
			// runtime condition to absorb.
			panic(fmt.Sprintf("cache %s: writeback refused by downstream", c.cfg.Name))
		}
		c.stats.Writebacks++
	}
	c.keys[w], c.dirty[w] = key, dirty
	if c.lru != nil {
		if c.touch(set, w) {
			c.renumber(set)
		}
	} else {
		c.rrpv[w] = srripMax - 1 // long re-reference prediction on insert
	}
}

// touch marks way w of set as just used: the set's next LRU stamp, or
// SRRIP's near-immediate re-reference prediction. It reports whether the
// set's LRU clock reached its top; the caller must then renumber the set
// before its next touch. Leaving that call to the caller keeps touch
// small enough to inline.
func (c *Cache) touch(set, w int) (full bool) {
	if c.lru == nil {
		c.rrpv[w] = 0
		return false
	}
	t := c.clock[set] + 1
	c.clock[set], c.lru[w] = t, t
	return t == math.MaxUint8
}

// renumber rewrites set's non-zero LRU stamps as ranks 1..k in the same
// order and rewinds the set's clock to k. The stamps are distinct, so a
// stamp's rank is the number of stamps at or below it, read off a bitmap
// of the set's stamps. It stays out of line so its callers' hit paths
// stay small.
//
//go:noinline
func (c *Cache) renumber(set int) {
	stamps := c.lru[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	var seen [4]uint64 // bit s is set iff some way holds stamp s
	for _, s := range stamps {
		seen[s>>6] |= 1 << (s & 63)
	}
	seen[0] &^= 1    // stamp 0 is an untouched way, not a rank
	var below [4]int // below[i]: stamps in seen's words before i
	for i := 1; i < len(seen); i++ {
		below[i] = below[i-1] + bits.OnesCount64(seen[i-1])
	}
	for w, s := range stamps {
		if s != 0 {
			stamps[w] = uint8(below[s>>6] + bits.OnesCount64(seen[s>>6]&(2<<(s&63)-1)))
		}
	}
	c.clock[set] = uint8(below[3] + bits.OnesCount64(seen[3]))
}

// pickVictim returns the way of set to replace: the first empty way,
// else the least recently used one (ties to the first) under LRU, else
// the first way at the maximum RRPV after aging the set under SRRIP.
func (c *Cache) pickVictim(set int) int {
	lo, hi := set*c.cfg.Ways, (set+1)*c.cfg.Ways
	for w, k := range c.keys[lo:hi] {
		if k == 0 {
			return lo + w
		}
	}
	if c.lru != nil {
		// Pack each way's stamp above its index (under 256, as New caps
		// Ways), so one branch-free min finds the oldest stamp and, on a
		// tie, the first way.
		oldest := uint32(math.MaxUint32)
		for w, s := range c.lru[lo:hi] {
			oldest = min(oldest, uint32(s)<<8|uint32(w))
		}
		return lo + int(oldest&math.MaxUint8)
	}
	rrpv := c.rrpv[lo:hi]
	for {
		for w, r := range rrpv {
			if r >= srripMax {
				return lo + w
			}
		}
		for w := range rrpv {
			rrpv[w]++
		}
	}
}

// Fetch implements Fetcher, letting caches stack: an upper level's miss is
// a demand access here without prefetcher involvement.
func (c *Cache) Fetch(lineAddr uint64, now ticks.T, done func(at ticks.T)) bool {
	return c.access(lineAddr, false, now, done, false)
}

// WriteBack implements Fetcher: a dirty line arriving from above is
// installed dirty (allocating if needed). Writebacks are accepted
// unconditionally; if the line must be fetched space, it is installed
// without a downstream read since the data arrives complete.
func (c *Cache) WriteBack(lineAddr uint64, now ticks.T) bool {
	set, key := c.setOf(lineAddr), c.keyOf(lineAddr)
	if w := c.lookup(set, key); w >= 0 {
		c.dirty[w] = true
		if c.touch(set, w) {
			c.renumber(set)
		}
		return true
	}
	c.install(set, key, true, now)
	return true
}

package dram

import (
	"math/bits"

	"pracsim/internal/spare"
)

// counterSlot is one entry of a rowCounters table: key is row+1, so the
// zero value marks an empty slot (whose count is always 0).
type counterSlot struct {
	key   uint32
	count uint32
}

// minCounterSlots is a table's size at its first insert.
const minCounterSlots = 16

// rowCounters is one bank's PRAC activation counters: an open-addressed
// hash table from row to count with a Fibonacci-hash home slot and linear
// probing. It holds only rows with a live (nonzero) count. A bank that is
// never activated allocates nothing; the table doubles when an insert
// would lift its load above 3/4, and deletion shifts the rest of the
// probe run back instead of leaving tombstones, so mitigations never
// lengthen probes over a long run. Org.Validate bounds a bank to 1<<31
// rows and Issue refuses an ACT outside the bank, so every row fits a key.
type rowCounters struct {
	slots []counterSlot // power-of-two length, or nil before the first insert
	n     int           // live rows
	shift uint8         // 64 - log2(len(slots)), for the home slot
}

// home returns key's preferred slot.
func (t *rowCounters) home(key uint32) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding key or, when key is absent, the empty
// slot that ends its probe run. The table must be allocated; its load
// bound guarantees an empty slot.
func (t *rowCounters) find(key uint32) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// get returns row's count, 0 when the row has none.
func (t *rowCounters) get(row int) uint32 {
	if t.slots == nil {
		return 0
	}
	return t.slots[t.find(uint32(row)+1)].count
}

// inc increments row's count and returns the new value.
func (t *rowCounters) inc(row int) uint32 {
	key := uint32(row) + 1
	if t.slots != nil {
		s := &t.slots[t.find(key)]
		if s.key == key {
			s.count++
			return s.count
		}
		if 4*(t.n+1) <= 3*len(t.slots) {
			*s = counterSlot{key, 1}
			t.n++
			return 1
		}
	}
	t.grow()
	t.slots[t.find(key)] = counterSlot{key, 1}
	t.n++
	return 1
}

// del resets row's count to zero (a mitigation).
func (t *rowCounters) del(row int) {
	if t.slots == nil {
		return
	}
	i := t.find(uint32(row) + 1)
	if t.slots[i].key == 0 {
		return
	}
	// Backward shift: move each later entry of the probe run into the
	// hole when the hole lies on its path from its home slot.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = counterSlot{}
	t.n--
}

// clear resets every count to zero, keeping the table's capacity.
func (t *rowCounters) clear() {
	clear(t.slots)
	t.n = 0
}

// hottest returns the row with the highest count, the lowest such row on
// a tie, or (0, 0) when no row has a count. The explicit tie-break makes
// the answer independent of slot order.
func (t *rowCounters) hottest() (row int, count uint32) {
	for _, s := range t.slots {
		if r := int(s.key) - 1; s.count > count || (s.key != 0 && s.count == count && r < row) {
			row, count = r, s.count
		}
	}
	return row, count
}

// grow doubles the table (or takes its first slots) and reinserts every
// live entry, then recycles the outgrown table.
func (t *rowCounters) grow() {
	old := t.slots
	t.slots = takeSlots(max(2*len(old), minCounterSlots))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.find(s.key)] = s
		}
	}
	putSlots(old)
}

// recycle empties the table and hands its slots to the next table of
// the same size.
func (t *rowCounters) recycle() {
	putSlots(t.slots)
	*t = rowCounters{}
}

// spareSlots holds recycled counter tables, a stack per power-of-two
// size, keyed by log2 of the size.
var spareSlots = spare.New[int, []counterSlot]("dram.counters")

// takeSlots returns n zeroed slots (n a power of two), recycled if a
// table of that size was put back earlier.
func takeSlots(n int) []counterSlot {
	slots, ok := spareSlots.Take(bits.TrailingZeros(uint(n)))
	if !ok {
		return make([]counterSlot, n)
	}
	clear(slots)
	return slots
}

// putSlots recycles a table; a nil table is ignored.
func putSlots(slots []counterSlot) {
	if slots != nil {
		spareSlots.Put(bits.TrailingZeros(uint(len(slots))), slots)
	}
}

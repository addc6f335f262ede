package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleEntryQueueTracksHottest(t *testing.T) {
	q := &singleEntryQueue{}
	q.Observe(5, 1)
	q.Observe(7, 3)
	q.Observe(5, 2) // row 5 is now at 2, still colder than row 7
	if row, ok := q.PopVictim(); !ok || row != 7 {
		t.Fatalf("PopVictim() = %d,%v; want 7,true", row, ok)
	}
	if _, ok := q.PopVictim(); ok {
		t.Fatal("queue should be empty after pop")
	}
}

func TestSingleEntryQueueUpdatesOwnRow(t *testing.T) {
	q := &singleEntryQueue{}
	q.Observe(3, 10)
	q.Observe(3, 11) // same row keeps its slot even without exceeding others
	if row, ok := q.PopVictim(); !ok || row != 3 {
		t.Fatalf("PopVictim() = %d,%v; want 3,true", row, ok)
	}
}

func TestSingleEntryQueueClear(t *testing.T) {
	q := &singleEntryQueue{}
	q.Observe(1, 100)
	q.Clear()
	if _, ok := q.PopVictim(); ok {
		t.Fatal("cleared queue must be empty")
	}
}

// The single-entry queue's defining invariant (Section 4.2.3): after any
// observation sequence, the queued row is one whose final observed count is
// maximal among all observed rows.
func TestSingleEntryQueueHoldsMaxProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := &singleEntryQueue{}
		counts := map[int]uint32{}
		for i := 0; i < int(n)+1; i++ {
			row := rng.Intn(8)
			counts[row]++
			q.Observe(row, counts[row])
		}
		row, ok := q.PopVictim()
		if !ok {
			return false
		}
		for _, c := range counts {
			if c > counts[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityQueueEvictsColdest(t *testing.T) {
	q := newPriorityQueue(2)
	q.Observe(1, 5)
	q.Observe(2, 9)
	q.Observe(3, 7) // evicts row 1 (count 5)
	if row, ok := q.PopVictim(); !ok || row != 2 {
		t.Fatalf("first PopVictim() = %d,%v; want 2,true", row, ok)
	}
	if row, ok := q.PopVictim(); !ok || row != 3 {
		t.Fatalf("second PopVictim() = %d,%v; want 3,true", row, ok)
	}
	if _, ok := q.PopVictim(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestPriorityQueueIgnoresColderThanMin(t *testing.T) {
	q := newPriorityQueue(2)
	q.Observe(1, 5)
	q.Observe(2, 9)
	q.Observe(3, 4) // colder than both; dropped
	got := map[int]bool{}
	for {
		row, ok := q.PopVictim()
		if !ok {
			break
		}
		got[row] = true
	}
	if !got[1] || !got[2] || got[3] {
		t.Fatalf("queue contents = %v, want rows 1 and 2 only", got)
	}
}

func TestPriorityQueueUpdateExisting(t *testing.T) {
	q := newPriorityQueue(2)
	q.Observe(1, 5)
	q.Observe(2, 9)
	q.Observe(1, 12)
	if row, _ := q.PopVictim(); row != 1 {
		t.Fatalf("hottest after update = %d, want 1", row)
	}
}

// The priority queue must always pop rows in non-increasing count order and
// contain the hottest observed row when at least one row was observed more
// than the (depth)th hottest.
func TestPriorityQueuePopOrderProperty(t *testing.T) {
	prop := func(seed int64, n uint8, depthRaw uint8) bool {
		depth := int(depthRaw%6) + 1
		rng := rand.New(rand.NewSource(seed))
		q := newPriorityQueue(depth)
		counts := map[int]uint32{}
		for i := 0; i < int(n)+1; i++ {
			row := rng.Intn(10)
			counts[row]++
			q.Observe(row, counts[row])
		}
		prev := uint32(1 << 31)
		for {
			row, ok := q.PopVictim()
			if !ok {
				return true
			}
			if counts[row] > prev {
				return false
			}
			prev = counts[row]
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOQueueOrderAndBound(t *testing.T) {
	q := newFIFOQueue(2)
	q.Observe(4, 1)
	q.Observe(9, 1)
	q.Observe(2, 50) // full: dropped despite being hottest (the design flaw)
	if row, _ := q.PopVictim(); row != 4 {
		t.Fatalf("FIFO head = %d, want 4", row)
	}
	if row, _ := q.PopVictim(); row != 9 {
		t.Fatalf("FIFO second = %d, want 9", row)
	}
	if _, ok := q.PopVictim(); ok {
		t.Fatal("FIFO should be empty")
	}
}

func TestFIFOQueueNoDuplicates(t *testing.T) {
	q := newFIFOQueue(4)
	q.Observe(1, 1)
	q.Observe(1, 2)
	q.Observe(1, 3)
	if row, ok := q.PopVictim(); !ok || row != 1 {
		t.Fatalf("PopVictim() = %d,%v; want 1,true", row, ok)
	}
	if _, ok := q.PopVictim(); ok {
		t.Fatal("row 1 was enqueued more than once")
	}
}

// counterTable builds a rowCounters holding the given counts.
func counterTable(counts map[int]uint32) *rowCounters {
	t := &rowCounters{}
	for row, c := range counts {
		for range c {
			t.inc(row)
		}
	}
	return t
}

func TestIdealQueuePopsLiveMax(t *testing.T) {
	q := newIdealQueue(counterTable(map[int]uint32{10: 3, 20: 8, 30: 8}))
	row, ok := q.PopVictim()
	if !ok || row != 20 { // ties break toward the lower row index
		t.Fatalf("PopVictim() = %d,%v; want 20,true", row, ok)
	}
}

func TestIdealQueueEmptyCounters(t *testing.T) {
	q := newIdealQueue(counterTable(nil))
	if _, ok := q.PopVictim(); ok {
		t.Fatal("ideal queue over empty counters must report empty")
	}
}

func TestNewQueueSelectsKind(t *testing.T) {
	counters := &rowCounters{}
	cases := []struct {
		kind QueueKind
		want string
	}{
		{QueueSingleEntry, "*dram.singleEntryQueue"},
		{QueuePriority, "*dram.priorityQueue"},
		{QueueFIFO, "*dram.fifoQueue"},
		{QueueIdeal, "*dram.idealQueue"},
	}
	for _, c := range cases {
		cfg := DefaultConfig(1024)
		cfg.Queue = c.kind
		cfg.QueueDepth = 4
		q := newQueue(cfg, counters, &singleEntryQueue{})
		if got := typeName(q); got != c.want {
			t.Errorf("newQueue(%v) = %s, want %s", c.kind, got, c.want)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *singleEntryQueue:
		return "*dram.singleEntryQueue"
	case *priorityQueue:
		return "*dram.priorityQueue"
	case *fifoQueue:
		return "*dram.fifoQueue"
	case *idealQueue:
		return "*dram.idealQueue"
	default:
		return "unknown"
	}
}

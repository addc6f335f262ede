package dram

// MitigationQueue is the in-DRAM per-bank structure that decides which row
// is mitigated when an RFM (or a targeted refresh) gives the device time to
// act. The PRAC specification leaves this design to vendors; the paper's
// Section 4.1 argues a single-entry frequency-based queue suffices for TPRAC.
type MitigationQueue interface {
	// Observe records that row now has the given activation count.
	// It is called every time the row's counter is incremented.
	Observe(row int, count uint32)

	// PopVictim returns the row the device chooses to mitigate next and
	// removes it from the queue. ok is false when the queue is empty.
	PopVictim() (row int, ok bool)

	// Clear empties the queue. It is called when the device resets all
	// activation counters (e.g. at a refresh-window boundary).
	Clear()
}

// singleEntryQueue is TPRAC's design: it retains the single most activated
// row seen since the last mitigation (Section 4.1, item 2 in Figure 6).
type singleEntryQueue struct {
	row   int
	count uint32
	valid bool
}

func (q *singleEntryQueue) Observe(row int, count uint32) {
	if !q.valid || count > q.count || row == q.row {
		q.row, q.count, q.valid = row, count, true
	}
}

func (q *singleEntryQueue) PopVictim() (int, bool) {
	if !q.valid {
		return 0, false
	}
	q.valid = false
	row := q.row
	q.count = 0
	return row, true
}

func (q *singleEntryQueue) Clear() { q.valid, q.count = false, 0 }

// priorityQueue is a QPRAC-style bounded structure retaining the top-K rows
// by activation count. Eviction replaces the minimum entry when a hotter row
// appears.
type priorityQueue struct {
	rows   []int
	counts []uint32
	index  map[int]int // row -> slot
	depth  int
}

func newPriorityQueue(depth int) *priorityQueue {
	return &priorityQueue{
		rows:   make([]int, 0, depth),
		counts: make([]uint32, 0, depth),
		index:  make(map[int]int, depth),
		depth:  depth,
	}
}

func (q *priorityQueue) Observe(row int, count uint32) {
	if slot, ok := q.index[row]; ok {
		q.counts[slot] = count
		return
	}
	if len(q.rows) < q.depth {
		q.index[row] = len(q.rows)
		q.rows = append(q.rows, row)
		q.counts = append(q.counts, count)
		return
	}
	min := 0
	for i := 1; i < len(q.counts); i++ {
		if q.counts[i] < q.counts[min] {
			min = i
		}
	}
	if count <= q.counts[min] {
		return
	}
	delete(q.index, q.rows[min])
	q.rows[min], q.counts[min] = row, count
	q.index[row] = min
}

func (q *priorityQueue) PopVictim() (int, bool) {
	if len(q.rows) == 0 {
		return 0, false
	}
	max := 0
	for i := 1; i < len(q.counts); i++ {
		if q.counts[i] > q.counts[max] {
			max = i
		}
	}
	row := q.rows[max]
	last := len(q.rows) - 1
	delete(q.index, row)
	if max != last {
		q.rows[max], q.counts[max] = q.rows[last], q.counts[last]
		q.index[q.rows[max]] = max
	}
	q.rows, q.counts = q.rows[:last], q.counts[:last]
	return row, true
}

func (q *priorityQueue) Clear() {
	q.rows = q.rows[:0]
	q.counts = q.counts[:0]
	clear(q.index)
}

// fifoQueue is the insecure bounded FIFO design highlighted by prior work
// (Section 2.3): rows enter in arrival order once they first cross half the
// queue owner's observation, and mitigation serves the head regardless of
// how hot the row actually is.
type fifoQueue struct {
	rows  []int
	in    map[int]bool
	depth int
}

func newFIFOQueue(depth int) *fifoQueue {
	return &fifoQueue{in: make(map[int]bool, depth), depth: depth}
}

func (q *fifoQueue) Observe(row int, count uint32) {
	if q.in[row] || len(q.rows) >= q.depth {
		return
	}
	q.rows = append(q.rows, row)
	q.in[row] = true
}

func (q *fifoQueue) PopVictim() (int, bool) {
	if len(q.rows) == 0 {
		return 0, false
	}
	row := q.rows[0]
	q.rows = q.rows[1:]
	delete(q.in, row)
	return row, true
}

func (q *fifoQueue) Clear() {
	q.rows = q.rows[:0]
	clear(q.in)
}

// idealQueue models UPRAC's idealized mitigation: it has full knowledge of
// the bank's live counters and always mitigates the hottest row (the lowest
// such row on a tie). It keeps a reference to the bank's counter table
// rather than copying state.
type idealQueue struct {
	counters *rowCounters
}

func newIdealQueue(counters *rowCounters) *idealQueue {
	return &idealQueue{counters: counters}
}

func (q *idealQueue) Observe(int, uint32) {}

func (q *idealQueue) PopVictim() (int, bool) {
	row, count := q.counters.hottest()
	if count == 0 {
		return 0, false
	}
	return row, true
}

func (q *idealQueue) Clear() {}

// newQueue builds the queue implementation selected by the configuration.
// counters is the owning bank's live counter table, used by the ideal
// design; single is the zeroed storage of the single-entry design.
func newQueue(cfg Config, counters *rowCounters, single *singleEntryQueue) MitigationQueue {
	switch cfg.Queue {
	case QueueSingleEntry:
		return single
	case QueuePriority:
		return newPriorityQueue(cfg.QueueDepth)
	case QueueFIFO:
		return newFIFOQueue(cfg.QueueDepth)
	case QueueIdeal:
		return newIdealQueue(counters)
	default:
		panic("dram: unknown queue kind (validate config first)")
	}
}

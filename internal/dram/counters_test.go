package dram

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"pracsim/internal/spare"
	"pracsim/internal/ticks"
)

// TestRowCountersMatchMap drives seeded random streams of inc, get, del,
// clear and hottest against a plain map and compares the two after every
// operation. The row range is small enough that homes collide, probe
// runs wrap past the slice end and the table grows mid-stream; the test
// checks that each of those actually happened.
func TestRowCountersMatchMap(t *testing.T) {
	rows := []int{1<<31 - 1, 1 << 20} // the largest row a validated module holds
	for r := range 40 {
		rows = append(rows, r)
	}
	var sawCollision, sawWrap, sawGrow bool
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab rowCounters
		ref := map[int]uint32{}
		for step := range 3000 {
			row := rows[rng.Intn(len(rows))]
			before := len(tab.slots)
			switch op := rng.Intn(100); {
			case op < 55:
				ref[row]++
				if got := tab.inc(row); got != ref[row] {
					t.Fatalf("seed %d step %d: inc(%d) = %d, want %d", seed, step, row, got, ref[row])
				}
			case op < 75:
				delete(ref, row)
				tab.del(row)
			case op < 99:
				// get and hottest are checked below after every step.
			default:
				clear(ref)
				tab.clear()
				if len(tab.slots) != before {
					t.Fatalf("seed %d step %d: clear changed capacity %d -> %d", seed, step, before, len(tab.slots))
				}
			}
			if before > 0 && len(tab.slots) > before {
				sawGrow = true
			}
			if tab.n != len(ref) {
				t.Fatalf("seed %d step %d: table holds %d rows, map %d", seed, step, tab.n, len(ref))
			}
			for _, r := range rows {
				if got := tab.get(r); got != ref[r] {
					t.Fatalf("seed %d step %d: get(%d) = %d, want %d", seed, step, r, got, ref[r])
				}
			}
			var wantRow int
			var wantCount uint32
			for r, c := range ref {
				if c > wantCount || (c == wantCount && r < wantRow) {
					wantRow, wantCount = r, c
				}
			}
			if r, c := tab.hottest(); r != wantRow || c != wantCount {
				t.Fatalf("seed %d step %d: hottest() = %d,%d; want %d,%d", seed, step, r, c, wantRow, wantCount)
			}
			for i, s := range tab.slots {
				if s.key == 0 {
					if s.count != 0 {
						t.Fatalf("seed %d step %d: empty slot %d holds count %d", seed, step, i, s.count)
					}
					continue
				}
				if h := tab.home(s.key); h != i {
					sawCollision = true
					sawWrap = sawWrap || h > i
				}
			}
		}
	}
	if !sawCollision || !sawWrap || !sawGrow {
		t.Errorf("streams missed a case: collision=%v wrap=%v grow=%v", sawCollision, sawWrap, sawGrow)
	}
}

// TestCountActivationAllocFree is the allocation guard for the PRAC
// counters: once a bank's rows have been seen, ACT/PRE cycles on them,
// an RFM that mitigates one and the re-activation of the mitigated row
// allocate nothing.
func TestCountActivationAllocFree(t *testing.T) {
	const rows = 24
	for _, queue := range []QueueKind{QueueSingleEntry, QueueIdeal} {
		for _, rfm := range []CmdKind{CmdRFMab, CmdRFMpb} {
			cfg := smallConfig(1 << 30)
			cfg.Queue = queue
			m := MustNew(cfg)
			now := ticks.T(0)
			cycle := func() {
				for row := range rows {
					now = hammerOne(m, 0, row, now)
				}
				cmd := Cmd{Kind: rfm, Bank: 0}
				for !m.CanIssue(cmd, now) {
					now++
				}
				m.Issue(cmd, now)
			}
			cycle()
			allocs := testing.AllocsPerRun(50, cycle)
			if allocs != 0 {
				t.Errorf("%v queue, %v: activation cycle allocates %.2f objects, want 0", queue, rfm, allocs)
			}
			if got := m.Stats().MitigatedRows; got < 50 {
				t.Errorf("%v queue, %v: %d rows mitigated, want one per cycle", queue, rfm, got)
			}
		}
	}
}

// TestRowCountersFootprint bounds the counters' memory: a module with no
// activations allocates no counter storage, and N distinct rows in one
// bank cost at most 16 B per row at the high-water mark (8 B slots at a
// load of at least 1/2 when N is a power of two; just past a doubling the
// load is 3/8, about 21 B per row).
func TestRowCountersFootprint(t *testing.T) {
	if size := unsafe.Sizeof(counterSlot{}); size != 8 {
		t.Fatalf("counter slot is %d B, want 8", size)
	}
	m := MustNew(DefaultConfig(1 << 30))
	for i := range m.banks {
		if m.banks[i].counters.slots != nil {
			t.Fatalf("bank %d allocated counter slots before any activation", i)
		}
	}
	const n = 4096
	now := ticks.T(0)
	for row := range n {
		now = hammer(t, m, 0, row*7, 1, now)
	}
	perRow := float64(cap(m.banks[0].counters.slots)) * 8 / n
	t.Logf("%d rows in %d slots: %.1f B per row", n, cap(m.banks[0].counters.slots), perRow)
	if perRow > 16 {
		t.Errorf("%d rows cost %.1f B per row, want <= 16", n, perRow)
	}
	for i := 1; i < len(m.banks); i++ {
		if m.banks[i].counters.slots != nil {
			t.Fatalf("bank %d allocated counter slots without an activation", i)
		}
	}
}

// TestRecycledCountersAllocFree pins the counter-table recycling: once a
// table's growth from 16 slots to 2048 has run and the table has been
// recycled, regrowing another table the same way takes every size from
// the recycled tables (its own outgrown ones included) and allocates
// nothing.
func TestRecycledCountersAllocFree(t *testing.T) {
	regrow := func() {
		var tab rowCounters
		for row := range 1500 {
			tab.inc(row * 7)
		}
		if len(tab.slots) != 2048 {
			t.Fatalf("1500 rows in %d slots, want 2048", len(tab.slots))
		}
		tab.recycle()
	}
	regrow()
	if allocs := testing.AllocsPerRun(20, regrow); allocs != 0 {
		t.Errorf("regrowing a recycled table allocates %.2f objects, want 0", allocs)
	}
}

// TestRecycledCountersMatchFresh checks that a table grown on recycled
// slots, each holding another table's counts, behaves as one grown on
// fresh slots: same length, same slot contents after the same stream.
func TestRecycledCountersMatchFresh(t *testing.T) {
	stream := func(tab *rowCounters, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for range 3000 {
			row := rng.Intn(900)
			if rng.Intn(4) == 0 {
				tab.del(row)
			} else {
				tab.inc(row)
			}
		}
	}
	// Grow the reference on fresh slots: set the spare tables aside.
	saved := spareSlots
	spareSlots = spare.New[int, []counterSlot]("dram.counters set aside")
	var fresh rowCounters
	stream(&fresh, 2)
	spareSlots = saved
	for seed := int64(3); seed < 6; seed++ {
		var dirty rowCounters
		stream(&dirty, seed)
		n := len(dirty.slots)
		dirty.recycle()
		// A table with stale keys could make a probe loop forever, so
		// check the recycled slots directly before streaming into them.
		slots := takeSlots(n)
		for i, s := range slots {
			if s != (counterSlot{}) {
				t.Fatalf("after seed %d's table: recycled slot %d holds %+v", seed, i, s)
			}
		}
		putSlots(slots)
		var tab rowCounters
		stream(&tab, 2)
		if len(tab.slots) != len(fresh.slots) || tab.n != fresh.n || tab.shift != fresh.shift {
			t.Fatalf("after seed %d's table: recycled table has %d slots, %d rows, shift %d; fresh %d, %d, %d",
				seed, len(tab.slots), tab.n, tab.shift, len(fresh.slots), fresh.n, fresh.shift)
		}
		for i := range tab.slots {
			if tab.slots[i] != fresh.slots[i] {
				t.Fatalf("after seed %d's table: slot %d = %+v, fresh %+v", seed, i, tab.slots[i], fresh.slots[i])
			}
		}
		tab.recycle()
	}
}

// TestRecycledModulePanics checks that a recycled-away module cannot be
// used by mistake: its counter tables belong to other modules now, so
// commands and counter reads panic instead of touching them.
func TestRecycledModulePanics(t *testing.T) {
	m := MustNew(smallConfig(1 << 30))
	now := hammerOne(m, 1, 3, 0)
	if m.RowCounter(1, 3) != 1 {
		t.Fatal("activation not counted")
	}
	m.Recycle()
	m.Recycle()
	for name, use := range map[string]func(){
		"RowCounter": func() { m.RowCounter(1, 3) },
		"HottestRow": func() { m.HottestRow(1) },
		"CanIssue":   func() { m.CanIssue(Cmd{Kind: CmdACT, Bank: 1, Row: 3}, now) },
		"Issue":      func() { m.Issue(Cmd{Kind: CmdACT, Bank: 1, Row: 3}, now) },
	} {
		if !panics(use) {
			t.Errorf("%s on a recycled module did not panic", name)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRecycledModuleMatchesFresh builds a module on the banks of one
// recycled with rows open, counts and single-entry queues filled and a
// rank refreshing, and checks that it equals a freshly allocated module
// field for field, queues included. The organization is one no other
// test builds, so the fresh module really allocates.
func TestRecycledModuleMatchesFresh(t *testing.T) {
	cfg := smallConfig(1 << 30)
	cfg.Org.BanksPerGroup = 3
	old := MustNew(cfg)
	now := ticks.T(0)
	for i := range 40 {
		now = hammerOne(old, i%6, i%5, now)
	}
	old.Issue(Cmd{Kind: CmdACT, Bank: 2, Row: 4}, now+old.Config().Timing.TRP)
	var queued int
	for i := range old.banks {
		if q := old.banks[i].queue.(*singleEntryQueue); q.valid {
			queued++
		}
	}
	if queued == 0 || old.banks[2].state != bankActive {
		t.Fatalf("dirty module left fresh state: %d queues hold a row, bank 2 state %d", queued, old.banks[2].state)
	}
	old.rankBlockedUntil[0] = now // as a REFab in flight leaves it
	st := old.state
	old.Recycle()
	recycled, fresh := MustNew(cfg), MustNew(cfg)
	if recycled.state != st {
		t.Fatal("New after Recycle allocated instead of taking the recycled banks")
	}
	if fresh.state == st {
		t.Fatal("two modules share banks")
	}
	g, w := *recycled, *fresh
	g.state, w.state = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("recycled module differs from a fresh one:\n got %+v\nwant %+v", g, w)
	}
}

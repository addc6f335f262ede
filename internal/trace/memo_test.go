package trace

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// replayDiff replays n records of m beside a fresh Synth and reports the
// first difference: a memory record must match field for field, and a
// non-memory record must sit where the Synth puts one, so every gap
// between memory records is equal too.
func replayDiff(m *Memo, n int) error {
	s, err := NewSynth(m.spec)
	if err != nil {
		return err
	}
	r := m.Replay()
	for i := 0; i < n; i++ {
		want, _ := s.Next()
		got, ok := r.Next()
		if !ok {
			return fmt.Errorf("%s: replay ended at record %d", m.spec.Name, i)
		}
		if got.IsMem != want.IsMem || want.IsMem && got != want {
			return fmt.Errorf("%s: record %d = %+v, want %+v", m.spec.Name, i, got, want)
		}
	}
	return nil
}

func TestReplayMatchesSynth(t *testing.T) {
	n := 250_000
	if testing.Short() {
		n = 20_000
	}
	for _, w := range Catalog() {
		m, err := newMemo(SpecFor(w))
		if err != nil {
			t.Fatal(err)
		}
		if err := replayDiff(m, n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayEdgeSpecs covers specs the catalog does not reach: no or
// almost no memory records (chunks end by record count, and gaps outrun
// the escape word), only memory records, and a one-line footprint whose
// escape words hold the fewest records.
func TestReplayEdgeSpecs(t *testing.T) {
	base := SynthSpec{HotFrac: 0.3, StreamFrac: 0.5, WriteFrac: 0.2, HotLines: 1 << 9, FootprintLines: 1 << 18, Base: 1 << 30, Seed: 3}
	specs := map[string]func(s *SynthSpec){
		"mem0":      func(s *SynthSpec) { s.MemRatio = 0 },
		"mem1e-4":   func(s *SynthSpec) { s.MemRatio = 1e-4 },
		"mem1":      func(s *SynthSpec) { s.MemRatio = 1 },
		"one-line":  func(s *SynthSpec) { s.MemRatio = 0.002; s.HotLines, s.FootprintLines = 1, 1 },
		"wide-foot": func(s *SynthSpec) { s.MemRatio = 0.3; s.FootprintLines = 1 << 22 },
	}
	for name, edit := range specs {
		spec := base
		spec.Name = name
		edit(&spec)
		m, err := shared(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A generator that ended chunks only on memory records would
		// never return here, so a hang fails the test.
		done := make(chan error, 1)
		go func() { done <- replayDiff(m, 300_000) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: replaying 300k records did not finish in a minute", name)
		}
	}
	spec := base
	spec.Name, spec.MemRatio, spec.FootprintLines = "too-wide", 0.3, 1<<22+1
	if _, err := shared(spec); err == nil {
		t.Error("a footprint wider than a word's line field was accepted")
	}
}

// TestReplayConcurrentReaders has several goroutines replay one memo
// while it grows; under -race it checks that readers need no lock.
func TestReplayConcurrentReaders(t *testing.T) {
	m, err := newMemo(SpecFor(Workload{Name: "433.milc", Class: ClassHigh}))
	if err != nil {
		t.Fatal(err)
	}
	const readers, n = 6, 100_000
	want := make([]Record, n)
	s, err := NewSynth(m.spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i], _ = s.Next(); !want[i].IsMem {
			want[i] = Record{}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := m.Replay()
			for i := range want {
				if got, _ := r.Next(); got != want[i] {
					t.Errorf("reader %d: record %d = %+v, want %+v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplayAllocFree pins that replaying an already generated prefix
// allocates nothing: the cores read it on every simulated instruction.
func TestReplayAllocFree(t *testing.T) {
	m, err := newMemo(SpecFor(Workload{Name: "444.namd", Class: ClassLow}))
	if err != nil {
		t.Fatal(err)
	}
	const per, runs = 1_000, 100
	warm := m.Replay()
	for i := 0; i < per*(runs+2); i++ {
		warm.Next()
	}
	r := m.Replay()
	if a := testing.AllocsPerRun(runs, func() {
		for i := 0; i < per; i++ {
			r.Next()
		}
	}); a != 0 {
		t.Errorf("replaying %d generated records allocated %.1f times", per, a)
	}
}

// footprintRecords is the most records a core pulls at 50k warm-up plus
// 150k measured instructions (grid-low and FullScale): the budget plus a
// ROB and an issue width's slack per phase.
const footprintRecords = 201_408

// replayed builds a fresh memo for w and replays n records of it,
// reporting the memo and its memory records.
func replayed(t *testing.T, w Workload, n int) (*Memo, int) {
	t.Helper()
	m, err := newMemo(SpecFor(w))
	if err != nil {
		t.Fatal(err)
	}
	r := m.Replay()
	mem := 0
	for i := 0; i < n; i++ {
		if rec, _ := r.Next(); rec.IsMem {
			mem++
		}
	}
	return m, mem
}

// memoBytes is the memory m's packed sequence holds: the chunks'
// capacity and the chunk list. The generator's fixed state (about 5 KB
// of math/rand source per memo) is not counted.
func memoBytes(m *Memo) int {
	cs := *m.chunks.Load()
	n := cap(cs) * 24
	for _, c := range cs {
		n += cap(c) * 2
	}
	return n
}

func TestMemoFootprint(t *testing.T) {
	for _, name := range []string{"444.namd", "631.deepsjeng", "458.sjeng", "456.hmmer", "403.gcc", "625.x264"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m, mem := replayed(t, w, footprintRecords)
		per := float64(memoBytes(m)) / float64(mem)
		t.Logf("%s: %d B for %d memory records, %.2f B each", name, memoBytes(m), mem, per)
		if per > 4.5 {
			t.Errorf("%s: %.2f B per memory record, want <= 4.5", name, per)
		}
	}
	if testing.Short() {
		return
	}
	total := 0
	for _, w := range Catalog() {
		m, _ := replayed(t, w, footprintRecords)
		total += memoBytes(m)
	}
	t.Logf("catalog: %.2f MB", float64(total)/(1<<20))
	if total > 10<<20 {
		t.Errorf("the catalog's memos hold %.2f MB, want <= 10 MB", float64(total)/(1<<20))
	}
}

// TestSharedMemoLifetime checks that the table hands out one memo per
// spec while it is held and drops the entry once it is collected.
func TestSharedMemoLifetime(t *testing.T) {
	spec := SpecFor(Workload{Name: "458.sjeng", Class: ClassLow})
	spec.Name = "lifetime"
	a, err := shared(spec)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := shared(spec); b != a {
		t.Fatal("two live memos for one spec")
	}
	a = nil
	waitNoMemo(t, spec)
}

// waitNoMemo collects garbage until the table has no entry for spec:
// cleanups run on their own goroutine after the collection that finds
// the memo unreachable.
func waitNoMemo(t *testing.T, spec SynthSpec) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.GC()
		memos.mu.Lock()
		_, ok := memos.m[spec]
		memos.mu.Unlock()
		if !ok {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("the table still holds a collected memo")
}

// TestCatalogSpecsMatchSpecFor pins the per-process spec table against
// the derivation it caches: every catalog entry's cached spec equals a
// fresh SpecFor field for field, and an unknown name is refused.
func TestCatalogSpecsMatchSpecFor(t *testing.T) {
	specs := catalogSpecs()
	if len(specs) != len(Catalog()) {
		t.Fatalf("spec table holds %d entries, catalog has %d", len(specs), len(Catalog()))
	}
	for _, w := range Catalog() {
		got, err := workloadSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := SpecFor(w); got != want {
			t.Errorf("%s: cached spec %+v, want %+v", w.Name, got, want)
		}
	}
	if _, err := WorkloadMemo("no.such.workload"); err == nil {
		t.Error("WorkloadMemo accepted an unknown workload")
	}
}

// TestWorkloadMemoAllocFree is the allocation guard for looking up a memo
// that already exists, as NewSystem does once per core.
func TestWorkloadMemoAllocFree(t *testing.T) {
	m, err := WorkloadMemo("433.milc")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := WorkloadMemo("433.milc"); err != nil || got != m {
			t.Fatalf("WorkloadMemo = %p, %v; want the live memo %p", got, err, m)
		}
	})
	if allocs != 0 {
		t.Errorf("WorkloadMemo of a live memo allocates %.1f objects, want 0", allocs)
	}
	runtime.KeepAlive(m)
}

package trace

import (
	"math"
	"testing"
)

func TestSliceStreamEnds(t *testing.T) {
	s := NewSliceStream([]Record{{PC: 1}, {PC: 2}})
	r1, ok1 := s.Next()
	r2, ok2 := s.Next()
	_, ok3 := s.Next()
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("ok sequence = %v,%v,%v; want true,true,false", ok1, ok2, ok3)
	}
	if r1.PC != 1 || r2.PC != 2 {
		t.Fatalf("records out of order: %v %v", r1, r2)
	}
}

func TestSynthDeterminism(t *testing.T) {
	spec := SpecFor(Workload{Name: "433.milc", Class: ClassHigh})
	a, err := NewSynth(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSynth(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("record %d diverged: %v vs %v", i, ra, rb)
		}
	}
}

func TestSynthRespectsFootprint(t *testing.T) {
	spec := SynthSpec{
		Name: "tiny", Class: ClassLow,
		MemRatio: 1, HotFrac: 0, StreamFrac: 0.5, WriteFrac: 0.2,
		HotLines: 4, FootprintLines: 128, Base: 1000, Seed: 7,
	}
	s, err := NewSynth(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		r, _ := s.Next()
		if !r.IsMem {
			t.Fatal("MemRatio=1 produced a non-memory record")
		}
		if r.Line < 1000 || r.Line >= 1000+128 {
			t.Fatalf("line %d outside footprint [1000,1128)", r.Line)
		}
	}
}

func TestSynthMemRatio(t *testing.T) {
	spec := SpecFor(Workload{Name: "429.mcf", Class: ClassHigh})
	s, err := NewSynth(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	mem := 0
	for i := 0; i < n; i++ {
		r, _ := s.Next()
		if r.IsMem {
			mem++
		}
	}
	got := float64(mem) / n
	if got < spec.MemRatio-0.03 || got > spec.MemRatio+0.03 {
		t.Fatalf("memory ratio = %.3f, want about %.3f", got, spec.MemRatio)
	}
}

func TestSynthValidation(t *testing.T) {
	bad := SynthSpec{Name: "bad", MemRatio: 2, HotLines: 1, FootprintLines: 2}
	if _, err := NewSynth(bad); err == nil {
		t.Error("MemRatio=2 accepted")
	}
	bad = SynthSpec{Name: "bad", MemRatio: 0.5, HotLines: 10, FootprintLines: 2}
	if _, err := NewSynth(bad); err == nil {
		t.Error("hot set larger than footprint accepted")
	}
	bad = SynthSpec{Name: "bad", MemRatio: 0.5, HotLines: 0, FootprintLines: 2}
	if _, err := NewSynth(bad); err == nil {
		t.Error("empty hot set accepted")
	}
	nan := math.NaN()
	for _, bad := range []SynthSpec{
		{Name: "nan-mem", MemRatio: nan, HotLines: 1, FootprintLines: 2},
		{Name: "nan-hot", MemRatio: 0.5, HotFrac: nan, HotLines: 1, FootprintLines: 2},
		{Name: "nan-stream", MemRatio: 0.5, StreamFrac: nan, HotLines: 1, FootprintLines: 2},
		{Name: "nan-write", MemRatio: 0.5, WriteFrac: nan, HotLines: 1, FootprintLines: 2},
	} {
		if _, err := NewSynth(bad); err == nil {
			t.Errorf("%s: NaN fraction accepted", bad.Name)
		}
		if _, err := shared(bad); err == nil {
			t.Errorf("%s: NaN fraction accepted by shared", bad.Name)
		}
	}
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 50 {
		t.Fatalf("catalog has %d workloads, want 50 (paper Table 4)", len(cat))
	}
	counts := map[Class]int{}
	suites := map[string]int{}
	seen := map[string]bool{}
	for _, w := range cat {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		counts[w.Class]++
		suites[w.Suite]++
	}
	if counts[ClassHigh] != 25 || counts[ClassMedium] != 7 || counts[ClassLow] != 18 {
		t.Errorf("class counts = %v, want H:25 M:7 L:18", counts)
	}
	if suites["CloudSuite"] != 4 {
		t.Errorf("CloudSuite count = %d, want 4", suites["CloudSuite"])
	}
}

func TestCatalogSpecsValidate(t *testing.T) {
	for _, w := range Catalog() {
		if err := SpecFor(w).Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestCatalogByClassAndLookup(t *testing.T) {
	if got := len(CatalogByClass(ClassMedium)); got != 7 {
		t.Errorf("medium workloads = %d, want 7", got)
	}
	if _, err := Lookup("433.milc"); err != nil {
		t.Errorf("Lookup(433.milc): %v", err)
	}
	if _, err := Lookup("not-a-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := NewWorkloadStream("433.milc"); err != nil {
		t.Errorf("NewWorkloadStream: %v", err)
	}
}

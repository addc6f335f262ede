package trace

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
)

// Workload names a catalog entry: a synthetic stand-in for one of the
// paper's Table 4 traces.
type Workload struct {
	Name  string
	Suite string // "SPEC2K6", "SPEC2K17", "CloudSuite"
	Class Class
}

// Catalog returns the 50-workload catalog mirroring the paper's Table 4
// (deduplicated): 25 High, 7 Medium and 18 Low RBMPKI workloads.
func Catalog() []Workload {
	var list []Workload
	add := func(suite string, class Class, names ...string) {
		for _, n := range names {
			list = append(list, Workload{Name: n, Suite: suite, Class: class})
		}
	}
	add("CloudSuite", ClassHigh, "nutch", "cassandra", "classification", "cloud9")
	add("SPEC2K6", ClassHigh,
		"433.milc", "410.bwaves", "470.lbm", "471.omnetpp", "483.xalancbmk",
		"450.soplex", "429.mcf", "482.sphinx3", "437.leslie3d",
		"436.cactusADM", "459.GemsFDTD")
	add("SPEC2K17", ClassHigh,
		"519.lbm", "520.omnetpp", "649.fotonik3d", "619.lbm", "654.roms",
		"605.mcf", "627.cam4", "620.omnetpp", "628.pop2", "607.cactuBSSN")
	add("SPEC2K6", ClassMedium, "401.bzip2", "473.astar", "464.h264ref")
	add("SPEC2K17", ClassMedium, "657.xz", "602.gcc", "623.xalancbmk", "481.wrf")
	add("SPEC2K6", ClassLow,
		"458.sjeng", "456.hmmer", "403.gcc", "444.namd", "465.tonto",
		"447.dealII", "435.gromacs", "454.calculix", "445.gobmk", "453.povray",
		"416.gamess")
	add("SPEC2K17", ClassLow,
		"631.deepsjeng", "625.x264", "603.bwaves", "638.imagick", "644.nab",
		"600.perlbench", "621.wrf")
	return list
}

// CatalogByClass filters the catalog to one intensity band.
func CatalogByClass(c Class) []Workload {
	var out []Workload
	for _, w := range Catalog() {
		if w.Class == c {
			out = append(out, w)
		}
	}
	return out
}

// Lookup finds a catalog entry by name.
func Lookup(name string) (Workload, error) {
	for _, w := range Catalog() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q", name)
}

// SpecFor derives the deterministic synthetic spec for a catalog entry.
// Parameters are jittered per workload name so the 50 entries behave
// distinctly while staying inside their RBMPKI band.
func SpecFor(w Workload) SynthSpec { return deriveSpec(w, rand.New(rand.NewSource(0))) }

// deriveSpec is SpecFor drawing the jitter from rng, which it reseeds
// with the workload's seed, so one generator serves many derivations.
func deriveSpec(w Workload, rng *rand.Rand) SynthSpec {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	seed := int64(h.Sum64() & (1<<62 - 1))
	rng.Seed(seed)
	jitter := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

	spec := SynthSpec{
		Name:  w.Name,
		Class: w.Class,
		Seed:  seed,
		Base:  0,
	}
	switch w.Class {
	case ClassHigh:
		spec.MemRatio = jitter(0.25, 0.40)
		spec.HotFrac = jitter(0.15, 0.35)
		spec.StreamFrac = jitter(0.20, 0.70)
		spec.WriteFrac = jitter(0.15, 0.30)
		spec.HotLines = 1 << 9
		spec.FootprintLines = 1 << 20 // 64 MB: far beyond the 8 MB LLC
	case ClassMedium:
		spec.MemRatio = jitter(0.10, 0.18)
		spec.HotFrac = jitter(0.90, 0.96)
		spec.StreamFrac = jitter(0.30, 0.60)
		spec.WriteFrac = jitter(0.10, 0.25)
		spec.HotLines = 1 << 10
		spec.FootprintLines = 1 << 19
	case ClassLow:
		spec.MemRatio = jitter(0.08, 0.15)
		spec.HotFrac = jitter(0.995, 0.999)
		spec.StreamFrac = jitter(0.20, 0.50)
		spec.WriteFrac = jitter(0.10, 0.25)
		spec.HotLines = 1 << 9
		spec.FootprintLines = 1 << 18
	default:
		panic(fmt.Sprintf("trace: workload %q has unknown class %q", w.Name, w.Class))
	}
	return spec
}

// catalogSpecs maps every catalog entry's name to its SpecFor, derived
// once per process through one generator: SpecFor allocates a fresh
// generator (about 5 KB) per call, and building a System looks up one
// spec per core.
var catalogSpecs = sync.OnceValue(func() map[string]SynthSpec {
	rng := rand.New(rand.NewSource(0))
	specs := make(map[string]SynthSpec)
	for _, w := range Catalog() {
		specs[w.Name] = deriveSpec(w, rng)
	}
	return specs
})

// workloadSpec returns the spec of a named catalog entry.
func workloadSpec(name string) (SynthSpec, error) {
	spec, ok := catalogSpecs()[name]
	if !ok {
		return SynthSpec{}, fmt.Errorf("trace: unknown workload %q", name)
	}
	return spec, nil
}

// NewWorkloadStream builds the synthetic stream for a named workload.
func NewWorkloadStream(name string) (*Synth, error) {
	spec, err := workloadSpec(name)
	if err != nil {
		return nil, err
	}
	return NewSynth(spec)
}

// WorkloadMemo returns the process's shared memo of a named workload.
// Once the memo exists, the call is two map lookups and allocates nothing.
func WorkloadMemo(name string) (*Memo, error) {
	spec, err := workloadSpec(name)
	if err != nil {
		return nil, err
	}
	return shared(spec)
}

package trace

import (
	"fmt"
	"math/rand"
)

// Class is the paper's Table 4 memory-intensity band.
type Class string

const (
	// ClassHigh is RBMPKI >= 10.
	ClassHigh Class = "H"
	// ClassMedium is 1 <= RBMPKI < 10.
	ClassMedium Class = "M"
	// ClassLow is RBMPKI < 1.
	ClassLow Class = "L"
)

// SynthSpec parameterizes a synthetic workload. The generator emits an
// infinite instruction stream mixing three memory behaviors:
//
//   - hot-set accesses that stay cache-resident (no DRAM traffic),
//   - sequential streaming through a large footprint (row-buffer friendly),
//   - random pointer-chase style accesses (row-buffer hostile).
//
// RBMPKI is steered by MemRatio and RandomFrac; row-buffer locality by
// StreamFrac.
type SynthSpec struct {
	Name  string
	Class Class

	MemRatio   float64 // fraction of instructions that touch memory
	HotFrac    float64 // fraction of memory ops hitting the small hot set
	StreamFrac float64 // fraction of the remainder that streams sequentially
	WriteFrac  float64 // fraction of memory ops that are stores

	HotLines       uint64 // hot-set size in cache lines
	FootprintLines uint64 // total working set in cache lines
	Base           uint64 // first cache line of the workload's region

	Seed int64
}

// Validate reports whether the spec is generable.
func (s SynthSpec) Validate() error {
	switch {
	// Written so that NaN, which fails every comparison, fails too.
	case !(s.MemRatio >= 0 && s.MemRatio <= 1),
		!(s.HotFrac >= 0 && s.HotFrac <= 1),
		!(s.StreamFrac >= 0 && s.StreamFrac <= 1),
		!(s.WriteFrac >= 0 && s.WriteFrac <= 1):
		return fmt.Errorf("trace: %s: fractions must be in [0,1]: %+v", s.Name, s)
	case s.HotLines == 0 || s.FootprintLines == 0:
		return fmt.Errorf("trace: %s: hot set and footprint must be non-empty", s.Name)
	case s.HotLines > s.FootprintLines:
		return fmt.Errorf("trace: %s: hot set (%d) exceeds footprint (%d)", s.Name, s.HotLines, s.FootprintLines)
	}
	return nil
}

// Synth is an infinite Stream generated from a SynthSpec.
type Synth struct {
	spec      SynthSpec
	rng       *rand.Rand
	streamPos uint64
}

// NewSynth builds the generator for a spec.
func NewSynth(spec SynthSpec) (*Synth, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Synth{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}, nil
}

// Spec returns the generating spec.
func (s *Synth) Spec() SynthSpec { return s.spec }

// Next implements Stream; it never ends.
func (s *Synth) Next() (Record, bool) {
	sp := &s.spec
	rec := Record{PC: pcOf(s.rng.Intn(pcCount))}
	if s.rng.Float64() >= sp.MemRatio {
		return rec, true
	}
	rec.IsMem = true
	rec.Write = s.rng.Float64() < sp.WriteFrac
	switch {
	case s.rng.Float64() < sp.HotFrac:
		rec.Line = sp.Base + uint64(s.rng.Int63())%sp.HotLines
		rec.PC = pcOf(0)
	case s.rng.Float64() < sp.StreamFrac:
		s.streamPos = (s.streamPos + 1) % sp.FootprintLines
		rec.Line = sp.Base + s.streamPos
		rec.PC = pcOf(1)
	default:
		rec.Line = sp.Base + uint64(s.rng.Int63())%sp.FootprintLines
	}
	return rec, true
}

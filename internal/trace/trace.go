// Package trace defines the instruction-trace representation consumed by the
// simulated cores, a deterministic synthetic workload generator, and the
// process-wide memo through which cores share each generated sequence.
//
// The paper evaluates 50 SPEC2006/SPEC2017/CloudSuite traces categorized by
// row-buffer misses per kilo-instruction (RBMPKI, Table 4). Those traces are
// proprietary, so this package synthesizes address streams whose RBMPKI
// lands in the same High/Medium/Low bands — the property the paper's
// methodology keys on.
package trace

// Record is one trace entry: a (possibly memory-accessing) instruction.
type Record struct {
	PC    uint64 // instruction address, used by stride prefetchers
	IsMem bool
	Write bool
	Line  uint64 // physical cache-line index, valid when IsMem
}

// Stream produces trace records. Streams may be infinite (synthetic
// generators loop forever); consumers decide how many instructions to run.
type Stream interface {
	Next() (Record, bool)
}

// SliceStream replays a fixed record slice once.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream returns a stream over recs.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements Stream.
func (s *SliceStream) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

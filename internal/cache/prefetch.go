package cache

import (
	"fmt"

	"pracsim/internal/spare"
)

// IPStride is the instruction-pointer stride prefetcher the paper attaches
// to the L1 data cache (Table 3). It tracks, per instruction address, the
// last accessed line and the last observed stride; two consecutive accesses
// with the same stride trigger prefetches of the next `degree` lines along
// that stride.
type IPStride struct {
	entries []ipEntry
	mask    uint64
	degree  int
}

type ipEntry struct {
	pc       uint64
	lastLine uint64
	stride   int64
	conf     int8
	valid    bool
}

// strideShape identifies the prefetchers that can share a table.
type strideShape struct{ tableSize, degree int }

// spareStrides holds recycled prefetchers, a stack per shape.
var spareStrides = spare.New[strideShape, *IPStride]("cache.ipstride")

// NewIPStride builds a prefetcher with a power-of-two table size. It
// takes the table of a recycled prefetcher of the same shape, cleared,
// if there is one.
func NewIPStride(tableSize, degree int) (*IPStride, error) {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		return nil, fmt.Errorf("cache: IP-stride table size (%d) must be a positive power of two", tableSize)
	}
	if degree <= 0 {
		return nil, fmt.Errorf("cache: IP-stride degree must be positive, got %d", degree)
	}
	if p, ok := spareStrides.Take(strideShape{tableSize, degree}); ok {
		clear(p.entries)
		return p, nil
	}
	return &IPStride{
		entries: make([]ipEntry, tableSize),
		mask:    uint64(tableSize - 1),
		degree:  degree,
	}, nil
}

// recycle hands the prefetcher to the next NewIPStride of its shape. It
// must not be used again.
func (p *IPStride) recycle() {
	spareStrides.Put(strideShape{len(p.entries), p.degree}, p)
}

// Observe records a demand access and appends the lines to prefetch to
// dst, returning the extended slice. Passing a reused buffer (dst[:0])
// keeps the per-access path free of allocations.
func (p *IPStride) Observe(dst []uint64, pc, lineAddr uint64) []uint64 {
	e := &p.entries[(pc>>2)&p.mask]
	if !e.valid || e.pc != pc {
		*e = ipEntry{pc: pc, lastLine: lineAddr, valid: true}
		return dst
	}
	stride := int64(lineAddr) - int64(e.lastLine)
	if stride == 0 {
		return dst
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastLine = lineAddr
	if e.conf < 2 {
		return dst
	}
	next := int64(lineAddr)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		dst = append(dst, uint64(next))
	}
	return dst
}

package trace

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"
)

// A Memo holds one synthetic workload's instruction sequence, generated
// once from its Synth and replayed read-only by any number of cores.
// Every core of a grid cell runs the same workload, and a grid runs each
// workload in many cells, so without the memo every core of every cell
// would draw the identical sequence from math/rand again.
//
// The sequence is packed per memory record, in 16-bit halfwords.
// Non-memory records keep only their count, the gap before the next
// memory record: the core never reads a non-memory PC. A record has one
// of two forms, told apart by the low bit:
//
//   - short (one halfword, low bit 0), for a record with PC-pool index 0
//     and a small line offset, which most hot-set accesses are: from bit
//     1 up, the write bit, the line offset from Base (sized from
//     HotLines, at most 10 bits) and the gap in the bits left;
//   - long (two halfwords making one 32-bit word, low bit 1): from bit 1
//     up, the write bit, the PC-pool index (6 bits), the line offset
//     from Base (sized from FootprintLines) and the gap in the bits left.
//
// A long word whose gap field is all ones is an escape: it stands for the
// number of non-memory records in bits 1 and up, and no memory record.
// Escapes carry gaps too long for a field and the non-memory records at
// the end of a chunk.
//
// Halfwords are generated in fixed-size chunks, appended under the
// memo's lock and published through an atomic pointer, so replays read
// every generated chunk without locking. Only the replay that reaches the
// end of the generated sequence takes the lock, to generate the next
// chunk.
type Memo struct {
	spec SynthSpec

	gapShift uint   // position of a long word's gap field
	esc      uint32 // gap field value of an escape
	lineMask uint32

	shortGapShift uint   // position of a short halfword's gap field
	shortOffMask  uint64 // the largest line offset a short halfword holds
	shortGapMax   uint32 // the largest gap a short halfword holds

	chunks atomic.Pointer[[][]uint16] // published chunks, never modified

	mu  sync.Mutex
	gen *Synth // the generator, advanced only under mu
}

const (
	pcBase  = 0x400000 // first PC of the synthetic PC pool
	pcBits  = 6        // a PC-pool index fits in this many bits
	pcCount = 1 << pcBits

	// lineShift is the line offset's position in a long word: above the
	// form bit, the write bit and the PC-pool index.
	lineShift = 2 + pcBits
	// shortOffBits caps a short halfword's line offset field, leaving
	// its gap at least 4 bits.
	shortOffBits = 10
	// chunkHalves is the size of one chunk: 2 KiB, the most a memo holds
	// beyond its generated records.
	chunkHalves = 1024
	// chunkRecords bounds the records behind one chunk, so a spec with
	// few or no memory records still ends each chunk.
	chunkRecords = 1 << 16
)

// pcOf is the PC of pool entry i.
func pcOf(i int) uint64 { return pcBase + uint64(i)*4 }

// newMemo builds the empty memo of a valid spec.
func newMemo(spec SynthSpec) (*Memo, error) {
	lineBits := uint(bits.Len64(spec.FootprintLines - 1))
	if lineShift+lineBits > 30 {
		return nil, fmt.Errorf("trace: %s: footprint of %d lines is too large to pack", spec.Name, spec.FootprintLines)
	}
	gen, err := NewSynth(spec)
	if err != nil {
		return nil, err
	}
	offBits := min(uint(bits.Len64(spec.HotLines-1)), shortOffBits)
	m := &Memo{
		spec:          spec,
		gapShift:      lineShift + lineBits,
		esc:           1<<(32-lineShift-lineBits) - 1,
		lineMask:      1<<lineBits - 1,
		shortGapShift: 2 + offBits,
		shortOffMask:  1<<offBits - 1,
		shortGapMax:   1<<(14-offBits) - 1,
		gen:           gen,
	}
	m.chunks.Store(new([][]uint16))
	return m, nil
}

// Replay returns a new stream over the memo's sequence from its start.
// It yields exactly the records of a fresh Synth over the same spec,
// except that a non-memory record has PC 0. A replay holds its memo, and
// is for one goroutine; any number of replays may read one memo at once.
func (m *Memo) Replay() *Replay { return &Replay{m: m} }

// chunk returns chunk i, generating chunks up to it first if needed.
func (m *Memo) chunk(i int) []uint16 {
	if cs := *m.chunks.Load(); i < len(cs) {
		return cs[i]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		cs := *m.chunks.Load()
		if i < len(cs) {
			return cs[i]
		}
		// Appending past len(cs) never touches an element a reader of
		// the published list can index.
		cs = append(cs, m.generate())
		m.chunks.Store(&cs)
	}
}

// generate packs the generator's next records into a chunk. A loop step
// adds at most two long words (an escape and a record) and the closing
// flush at most one, so the chunk never outgrows chunkHalves and a long
// word never straddles two chunks.
func (m *Memo) generate() []uint16 {
	c := make([]uint16, 0, chunkHalves)
	long := func(w uint32) { c = append(c, uint16(w|1), uint16(w>>16)) }
	escape := func(gap uint32) { long(m.esc<<m.gapShift | gap<<1) }
	base := m.spec.Base
	maxGap := uint32(1)<<(m.gapShift-1) - 1 // the most one escape stands for
	var gap uint32
	for n := 0; n < chunkRecords && len(c)+6 <= chunkHalves; n++ {
		rec, _ := m.gen.Next()
		if !rec.IsMem {
			if gap++; gap == maxGap {
				escape(gap)
				gap = 0
			}
			continue
		}
		var write uint32
		if rec.Write {
			write = 2
		}
		off, pc := rec.Line-base, uint32(rec.PC-pcBase)/4
		if pc == 0 && off <= m.shortOffMask && gap <= m.shortGapMax {
			c = append(c, uint16(gap<<m.shortGapShift|uint32(off)<<2|write))
		} else {
			if gap >= m.esc {
				escape(gap)
				gap = 0
			}
			long(gap<<m.gapShift | uint32(off)<<lineShift | pc<<2 | write)
		}
		gap = 0
	}
	if gap > 0 {
		escape(gap)
	}
	if len(c) < chunkHalves/2 {
		// A chunk ended by chunkRecords holds little: keep only that.
		c = append([]uint16(nil), c...)
	}
	return c
}

// Replay is a Stream over a Memo's sequence.
type Replay struct {
	m      *Memo
	chunk  []uint16 // the chunk being read
	pos    int      // next halfword of chunk
	next   int      // index of the chunk after chunk
	gap    uint32   // non-memory records still due before mem
	mem    Record   // the decoded memory record, due while hasMem
	hasMem bool
}

// SkipNonMem consumes up to max of the non-memory records that come next
// and reports how many it consumed: 0 when the next record is a memory
// record.
func (r *Replay) SkipNonMem(max int) int {
	for r.gap == 0 && !r.hasMem {
		r.load()
	}
	k := uint32(max)
	if r.gap < k {
		k = r.gap
	}
	r.gap -= k
	return int(k)
}

// Next implements Stream; it never ends.
func (r *Replay) Next() (Record, bool) {
	for {
		if r.gap > 0 {
			r.gap--
			return Record{}, true
		}
		if r.hasMem {
			r.hasMem = false
			return r.mem, true
		}
		r.load()
	}
}

// load decodes the next record: an escape sets the gap, a short or long
// record the gap and the record due after it.
func (r *Replay) load() {
	if r.pos == len(r.chunk) {
		r.chunk, r.pos = r.m.chunk(r.next), 0
		r.next++
		return
	}
	m := r.m
	h := r.chunk[r.pos]
	if h&1 == 0 {
		r.pos++
		r.gap = uint32(h) >> m.shortGapShift
		r.mem = Record{
			PC:    pcBase,
			IsMem: true,
			Write: h&2 != 0,
			Line:  m.spec.Base + uint64(h>>2)&m.shortOffMask,
		}
		r.hasMem = true
		return
	}
	w := uint32(h) | uint32(r.chunk[r.pos+1])<<16
	r.pos += 2
	r.gap = w >> m.gapShift
	if r.gap == m.esc {
		r.gap = w & (1<<m.gapShift - 1) >> 1
		return
	}
	r.mem = Record{
		PC:    pcOf(int(w>>2) & (pcCount - 1)),
		IsMem: true,
		Write: w&2 != 0,
		Line:  m.spec.Base + uint64(w>>lineShift&m.lineMask),
	}
	r.hasMem = true
}

// memos is the process-wide table of live memos. It holds them weakly:
// a memo lives while a replay, or a session pinning it, holds it, and a
// cleanup drops its entry once it is collected.
var memos struct {
	mu sync.Mutex
	m  map[SynthSpec]weak.Pointer[Memo]
}

// shared returns the process's memo for spec, creating it if no live
// memo exists. The memo generates records only as replays reach them.
func shared(spec SynthSpec) (*Memo, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	memos.mu.Lock()
	defer memos.mu.Unlock()
	if m := memos.m[spec].Value(); m != nil {
		return m, nil
	}
	m, err := newMemo(spec)
	if err != nil {
		return nil, err
	}
	if memos.m == nil {
		memos.m = make(map[SynthSpec]weak.Pointer[Memo])
	}
	wp := weak.Make(m)
	memos.m[spec] = wp
	runtime.AddCleanup(m, dropMemo, memoEntry{spec, wp})
	return m, nil
}

// memoEntry names one table entry for dropMemo.
type memoEntry struct {
	spec SynthSpec
	wp   weak.Pointer[Memo]
}

// dropMemo deletes a collected memo's entry, unless a newer memo for the
// same spec has replaced it.
func dropMemo(e memoEntry) {
	memos.mu.Lock()
	defer memos.mu.Unlock()
	if memos.m[e.spec] == e.wp {
		delete(memos.m, e.spec)
	}
}

// LiveMemos reports how many memos the process table holds.
func LiveMemos() int {
	memos.mu.Lock()
	defer memos.mu.Unlock()
	return len(memos.m)
}

package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pracsim/internal/ticks"
)

// SchemaVersion identifies the simulator's behavioral schema: any change
// that can alter a RunResult for the same configuration (timing model,
// policy semantics, trace synthesis, statistics definitions) must bump it.
// The version is baked into every persistent run key, so a bump silently
// invalidates all previously stored results — stale entries become
// unreachable rather than wrong. A change to the encoding below is a
// schema change too.
const SchemaVersion = 4

// The stable form of a RunResult is a fixed little-endian layout, every
// field in declaration order:
//
//	schema uvarint | len(Policy) uvarint | Policy
//	Cycles | Instructions | IPCSum
//	len(PerCoreIPC) uvarint | PerCoreIPC...
//	RBMPKI | Ctrl (10 leaves) | DRAM (11 leaves) | MeasuredTime
//	Telemetry: WallNS | SimTicks | TicksPerSec | EngineSteps |
//	           ElidedCoreCycles | ElidedCtrlCycles | len(Clock) uvarint | Clock
//
// Every int64 and float64 leaf takes 8 bytes (floats as their IEEE-754
// bits); uvarints are minimal. The schema stamp is defense in depth
// behind the versioned store key: a decoder never accepts a payload
// produced by a different simulator schema even if a key somehow
// survives a version bump.
const (
	ctrlLeaves  = 10
	dramLeaves  = 11
	fixedLeaves = 3 + 1 + ctrlLeaves + dramLeaves + 1 + 6 // every 8-byte leaf outside PerCoreIPC
)

// EncodeResult serializes a RunResult into its stable interchange form.
// The encoding is deterministic, so equal results encode to equal bytes
// and a decoded result reproduces byte-identical reports. A nil and an
// empty PerCoreIPC encode alike (and decode as nil). A NaN or infinite
// float is an error: no simulation produces one, and a decoder that
// accepted one could not promise an exact round trip.
func EncodeResult(r RunResult) ([]byte, error) {
	if err := checkFinite(r); err != nil {
		return nil, fmt.Errorf("sim: encoding result: %w", err)
	}
	size := 4*binary.MaxVarintLen64 + len(r.Policy) + len(r.Telemetry.Clock) + 8*(fixedLeaves+len(r.PerCoreIPC))
	b := make([]byte, 0, size)
	b = binary.AppendUvarint(b, SchemaVersion)
	b = appendString(b, r.Policy)
	b = appendInt(b, r.Cycles)
	b = appendInt(b, r.Instructions)
	b = appendFloat(b, r.IPCSum)
	b = binary.AppendUvarint(b, uint64(len(r.PerCoreIPC)))
	for _, v := range r.PerCoreIPC {
		b = appendFloat(b, v)
	}
	b = appendFloat(b, r.RBMPKI)

	c := &r.Ctrl
	for _, v := range [ctrlLeaves]int64{c.Reads, c.Writes, c.RowHits, c.RowMisses, c.ABORFMs,
		c.PolicyRFMs, c.Refreshes, c.TREFs, int64(c.ReadLatency), c.WriteForward} {
		b = appendInt(b, v)
	}
	d := &r.DRAM
	for _, v := range [dramLeaves]int64{d.ACTs, d.PREs, d.RDs, d.WRs, d.REFs, d.RFMs, d.RFMpbs,
		d.TREFMitigations, d.MitigatedRows, d.AlertsAsserted, d.CounterResets} {
		b = appendInt(b, v)
	}
	b = appendInt(b, int64(r.MeasuredTime))

	t := &r.Telemetry
	b = appendInt(b, t.WallNS)
	b = appendInt(b, int64(t.SimTicks))
	b = appendFloat(b, t.TicksPerSec)
	b = appendInt(b, t.EngineSteps)
	b = appendInt(b, t.ElidedCoreCycles)
	b = appendInt(b, t.ElidedCtrlCycles)
	b = appendString(b, t.Clock)
	return b, nil
}

func checkFinite(r RunResult) error {
	floats := [3]float64{r.IPCSum, r.RBMPKI, r.Telemetry.TicksPerSec}
	for _, v := range floats {
		if !finite(v) {
			return fmt.Errorf("non-finite value %v", v)
		}
	}
	for _, v := range r.PerCoreIPC {
		if !finite(v) {
			return fmt.Errorf("non-finite per-core IPC %v", v)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func appendInt(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodeResult parses a stable-form RunResult. It rejects a payload from
// a different simulator schema, one cut short anywhere, one with bytes
// after the last field, a non-minimal uvarint and a non-finite float, so
// every payload it accepts is exactly what EncodeResult makes of the
// result. A length is checked against the bytes left before anything is
// allocated for it. A success allocates at most the two strings and the
// PerCoreIPC slice.
func DecodeResult(data []byte) (RunResult, error) {
	d := resultDecoder{buf: data}
	if schema := d.uvarint(); d.err == nil && schema != SchemaVersion {
		return RunResult{}, fmt.Errorf("sim: result schema %d, want %d", schema, SchemaVersion)
	}
	var r RunResult
	r.Policy = d.str()
	r.Cycles = d.i64()
	r.Instructions = d.i64()
	r.IPCSum = d.f64()
	if n := d.uvarint(); n > 0 && d.err == nil {
		if n > uint64(len(d.buf))/8 {
			d.err = errTruncated
		} else {
			r.PerCoreIPC = make([]float64, n)
			for i := range r.PerCoreIPC {
				r.PerCoreIPC[i] = d.f64()
			}
		}
	}
	r.RBMPKI = d.f64()

	c := &r.Ctrl
	for _, p := range [ctrlLeaves]*int64{&c.Reads, &c.Writes, &c.RowHits, &c.RowMisses, &c.ABORFMs,
		&c.PolicyRFMs, &c.Refreshes, &c.TREFs, (*int64)(&c.ReadLatency), &c.WriteForward} {
		*p = d.i64()
	}
	dr := &r.DRAM
	for _, p := range [dramLeaves]*int64{&dr.ACTs, &dr.PREs, &dr.RDs, &dr.WRs, &dr.REFs, &dr.RFMs, &dr.RFMpbs,
		&dr.TREFMitigations, &dr.MitigatedRows, &dr.AlertsAsserted, &dr.CounterResets} {
		*p = d.i64()
	}
	r.MeasuredTime = ticks.T(d.i64())

	t := &r.Telemetry
	t.WallNS = d.i64()
	t.SimTicks = ticks.T(d.i64())
	t.TicksPerSec = d.f64()
	t.EngineSteps = d.i64()
	t.ElidedCoreCycles = d.i64()
	t.ElidedCtrlCycles = d.i64()
	t.Clock = d.str()

	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return RunResult{}, fmt.Errorf("sim: decoding result: %w", d.err)
	}
	return r, nil
}

var (
	errTruncated = errors.New("truncated")
	errVarint    = errors.New("malformed or non-minimal uvarint")
	errNonFinite = errors.New("non-finite float")
)

// resultDecoder consumes the stable form front to back. The first error
// sticks: every later read returns a zero value, so DecodeResult checks
// once at the end.
type resultDecoder struct {
	buf []byte
	err error
}

func (d *resultDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) { // a minimal encoding never ends in a zero byte
		d.err = errVarint
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *resultDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *resultDecoder) i64() int64 { return int64(d.u64()) }

func (d *resultDecoder) f64() float64 {
	v := math.Float64frombits(d.u64())
	if d.err == nil && !finite(v) {
		d.err = errNonFinite
	}
	return v
}

func (d *resultDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = errTruncated
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

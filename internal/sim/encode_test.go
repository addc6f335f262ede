package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
)

func sampleResult() RunResult {
	return RunResult{
		Policy:       "TPRAC",
		Cycles:       123456,
		Instructions: 40000,
		IPCSum:       1.0 / 3.0, // a value with no short decimal form
		PerCoreIPC:   []float64{0.1, math.Nextafter(0.25, 1), 0.25, 1e-17},
		RBMPKI:       3.1415926535897931,
		Ctrl:         memctrl.Stats{Reads: 9, RowMisses: 4, ReadLatency: 77},
		DRAM:         dram.Stats{ACTs: 11, RFMs: 2, CounterResets: 1},
		MeasuredTime: 987654,
		Telemetry: Telemetry{
			WallNS: 5e6, SimTicks: 987654, TicksPerSec: 1.9e8,
			EngineSteps: 4242, ElidedCoreCycles: 17, Clock: "demand",
		},
	}
}

// TestEncodeResultRoundTrip pins the serialization contract the run store
// depends on: decode(encode(r)) == r exactly, including float64 values
// with no short decimal representation, and equal results encode to
// equal bytes.
func TestEncodeResultRoundTrip(t *testing.T) {
	r := sampleResult()
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, r)
	}
	again, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("equal results encoded to different bytes")
	}
}

// fillLeaves sets every leaf under v to a distinct non-zero value,
// counting from *next, and fails on a leaf kind the codec has no rule
// for.
func fillLeaves(t *testing.T, v reflect.Value, path string, next *int64) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	case reflect.Int64:
		v.SetInt(*next)
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		v.SetString(path)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Float64 {
			t.Fatalf("%s: no codec rule for %s", path, v.Type())
		}
		v.Set(reflect.ValueOf([]float64{float64(*next) + 0.25, float64(*next) + 0.75}))
	default:
		t.Fatalf("%s: no codec rule for %s", path, v.Type())
	}
}

// TestEncodeResultCoversEveryField fills every leaf of RunResult, nested
// statistics included, with a distinct non-zero value and requires an
// exact round trip, so a field added to RunResult, memctrl.Stats,
// dram.Stats or Telemetry without a place in the codec fails here
// instead of silently decoding as zero.
func TestEncodeResultCoversEveryField(t *testing.T) {
	var r RunResult
	var next int64
	fillLeaves(t, reflect.ValueOf(&r).Elem(), "RunResult", &next)
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip dropped a field:\n got %+v\nwant %+v", got, r)
	}
}

// TestEncodeResultLayout pins the byte layout on a small result: the
// schema stamp, then each field in declaration order, every int64 and
// float64 leaf as 8 little-endian bytes.
func TestEncodeResultLayout(t *testing.T) {
	r := RunResult{Policy: "P", Cycles: 1, PerCoreIPC: []float64{0.5}, Telemetry: Telemetry{Clock: "c"}}
	var want []byte
	want = append(want, SchemaVersion, 1, 'P')
	want = binary.LittleEndian.AppendUint64(want, 1) // Cycles
	want = append(want, make([]byte, 16)...)         // Instructions, IPCSum
	want = append(want, 1)                           // len(PerCoreIPC)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(0.5))
	want = append(want, make([]byte, 8*(1+ctrlLeaves+dramLeaves+1+6))...) // RBMPKI .. ElidedCtrlCycles
	want = append(want, 1, 'c')
	got, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("layout:\n got % x\nwant % x", got, want)
	}
}

// TestEncodeResultEmptyPerCoreIPC pins the one lossy corner: a nil and
// an empty PerCoreIPC encode to the same bytes, and both decode as nil.
// Nothing reads the difference (reports range over the slice).
func TestEncodeResultEmptyPerCoreIPC(t *testing.T) {
	var encs [][]byte
	for _, ipc := range [][]float64{nil, {}} {
		r := sampleResult()
		r.PerCoreIPC = ipc
		data, err := EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.PerCoreIPC != nil {
			t.Errorf("PerCoreIPC %#v decoded as %#v, want nil", ipc, got.PerCoreIPC)
		}
		encs = append(encs, data)
	}
	if !bytes.Equal(encs[0], encs[1]) {
		t.Error("nil and empty PerCoreIPC encode differently")
	}
}

// TestEncodeResultRejectsNonFinite: no simulation yields a NaN or an
// infinity, and the decoder refuses them, so the encoder does too.
func TestEncodeResultRejectsNonFinite(t *testing.T) {
	for _, set := range []func(*RunResult){
		func(r *RunResult) { r.IPCSum = math.NaN() },
		func(r *RunResult) { r.RBMPKI = math.Inf(1) },
		func(r *RunResult) { r.Telemetry.TicksPerSec = math.Inf(-1) },
		func(r *RunResult) { r.PerCoreIPC[2] = math.NaN() },
	} {
		r := sampleResult()
		set(&r)
		if _, err := EncodeResult(r); err == nil {
			t.Errorf("non-finite float encoded: %+v", r)
		}
	}
}

// withSchema re-stamps a canonical encoding with another schema value.
func withSchema(data []byte, schema uint64) []byte {
	_, n := binary.Uvarint(data)
	return append(binary.AppendUvarint(nil, schema), data[n:]...)
}

// TestDecodeResultRejectsSchemaMismatch: a payload stamped with another
// schema version must be refused, never silently reinterpreted.
func TestDecodeResultRejectsSchemaMismatch(t *testing.T) {
	good, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	for _, schema := range []uint64{0, SchemaVersion - 1, SchemaVersion + 1, math.MaxUint64} {
		if _, err := DecodeResult(withSchema(good, schema)); err == nil {
			t.Errorf("schema %d accepted", schema)
		}
	}
}

// TestDecodeResultRejectsGarbage: truncated, extended or malformed
// payloads error cleanly (the store treats any decode error as a miss).
// Every strict prefix of a valid encoding is refused, as is one extra
// byte, a non-minimal uvarint and a non-finite float.
func TestDecodeResultRejectsGarbage(t *testing.T) {
	good, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := DecodeResult(good[:n]); err == nil {
			t.Errorf("decode accepted a %d-of-%d-byte prefix", n, len(good))
		}
	}
	nanIPC := bytes.Clone(good)
	off := 1 + 1 + len("TPRAC") + 3*8 + 1 // the first PerCoreIPC value
	binary.LittleEndian.PutUint64(nanIPC[off:], math.Float64bits(math.NaN()))
	overlong := append([]byte{SchemaVersion | 0x80, 0x00}, good[1:]...)
	for name, data := range map[string][]byte{
		"trailing byte":     append(bytes.Clone(good), 0),
		"non-minimal stamp": overlong,
		"NaN IPC":           nanIPC,
		"JSON":              []byte(`{"schema":4,"result":{}}`),
	} {
		if _, err := DecodeResult(data); err == nil {
			t.Errorf("decode accepted %s: % x", name, data)
		}
	}
}

// hostileLengths are encodings whose PerCoreIPC count or string length
// claims far more bytes than the input holds.
func hostileLengths() [][]byte {
	stamp := binary.AppendUvarint(nil, SchemaVersion)
	var out [][]byte
	for _, n := range []uint64{1 << 24, 1 << 40, 1 << 61, math.MaxUint64 - 7, math.MaxUint64} {
		policy := binary.AppendUvarint(bytes.Clone(stamp), n)
		out = append(out, append(policy, "TPRAC"...))

		ipc := append(bytes.Clone(stamp), 0)    // empty Policy
		ipc = append(ipc, make([]byte, 3*8)...) // Cycles, Instructions, IPCSum
		ipc = binary.AppendUvarint(ipc, n)      // PerCoreIPC count
		ipc = append(ipc, make([]byte, 8*fixedLeaves)...)
		out = append(out, ipc)

		clock, _ := EncodeResult(RunResult{})
		clock = binary.AppendUvarint(clock[:len(clock)-1], n) // Clock length
		out = append(out, append(clock, "demand"...))
	}
	return out
}

// TestDecodeResultHostileLengths: a length field near 2^64 is refused
// before anything is allocated for it — decoding allocates no more than
// a small error per input, never the claimed size.
func TestDecodeResultHostileLengths(t *testing.T) {
	for _, data := range hostileLengths() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeResult(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("hostile length accepted: % x", data)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+1024 {
			t.Errorf("decoding %d hostile bytes allocated %d bytes", len(data), grew)
		}
	}
}

// TestDecodeResultAllocs is the allocation guard on the warm-job path:
// one decode makes the Policy and Clock strings and the PerCoreIPC slice
// and nothing else (the JSON decoder it replaced made 20).
func TestDecodeResultAllocs(t *testing.T) {
	data, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResult(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("DecodeResult allocates %.0f times, want <= 3", allocs)
	}
}

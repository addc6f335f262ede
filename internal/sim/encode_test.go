package sim

import (
	"encoding/json"
	"math"
	"reflect"
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

// TestDecodeResultRejectsSchemaMismatch: a payload stamped with another
// schema version must be refused, never silently reinterpreted.
func TestDecodeResultRejectsSchemaMismatch(t *testing.T) {
	data, err := json.Marshal(resultEnvelope{Schema: SchemaVersion + 1, Result: sampleResult()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(data); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestDecodeResultRejectsGarbage: truncated, extended or non-JSON
// payloads error cleanly (the store treats any decode error as a miss).
func TestDecodeResultRejectsGarbage(t *testing.T) {
	good, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{nil, []byte("{"), good[:len(good)/2], append(good, '}'), []byte(`{"schema":3,"result":{"NoSuchField":1}}`)} {
		if _, err := DecodeResult(data); err == nil {
			t.Errorf("decode accepted %q", data)
		}
	}
}

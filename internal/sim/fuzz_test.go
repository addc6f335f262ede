package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeResult fuzzes the decoder every run-store hit goes through.
// For any input DecodeResult must not panic; the seeds include length
// fields near 2^64, whose allocation TestDecodeResultHostileLengths
// bounds. An input it accepts must be exactly
// the encoding of the result it decodes to (re-encoding reproduces the
// input byte for byte), and corrupting that encoding (truncating it, or
// appending a byte after the last field) must yield an error.
func FuzzDecodeResult(f *testing.F) {
	good, err := EncodeResult(sampleResult())
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeResult(RunResult{})
	if err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{good, empty} {
		f.Add(data)
		for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
			f.Add(data[:n])
		}
		f.Add(append(bytes.Clone(data), 0))
	}
	for _, data := range hostileLengths() {
		f.Add(data)
	}
	for _, s := range []string{
		"\x03",     // the previous schema's stamp, alone
		"\x84\x00", // a non-minimal schema stamp
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", // a stamp that overflows 64 bits
		`{"schema":4,"result":{}}`,
		"\x00\xff garbage",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input is not the canonical encoding:\n got % x\nwant % x", enc, data)
		}
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("re-encode changed the result:\n got %+v\nwant %+v", again, r)
		}
		if enc2, _ := EncodeResult(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("equal results encoded to different bytes:\n% x\n% x", enc2, enc)
		}
		for _, bad := range [][]byte{enc[:len(enc)-1], enc[:len(enc)/2], append(bytes.Clone(enc), 'x')} {
			if _, err := DecodeResult(bad); err == nil {
				t.Fatalf("corrupt encoding % x decoded", bad)
			}
		}
	})
}

package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeResult fuzzes the decoder every run-store hit goes through.
// For any input DecodeResult must not panic. An input it accepts must
// re-encode to bytes that decode to an identical RunResult and re-encode
// to the same bytes, and corrupting that canonical encoding (truncating
// it, or appending a byte after the envelope) must yield an error.
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
		f.Add(append(bytes.Clone(data), '}'))
	}
	for _, s := range []string{
		"{",
		"null",
		`{"schema":3}`,
		`{"schema":3,"result":{"NoSuchField":1}}`,
		`{"schema":3,"result":{"PerCoreIPC":[1e400]}}`,
		`{"schema":2,"result":{}}`,
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
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("re-encode changed the result:\n got %+v\nwant %+v", again, r)
		}
		if enc2, _ := EncodeResult(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("equal results encoded to different bytes:\n%s\n%s", enc2, enc)
		}
		for _, bad := range [][]byte{enc[:len(enc)-1], enc[:len(enc)/2], append(bytes.Clone(enc), 'x')} {
			if _, err := DecodeResult(bad); err == nil {
				t.Fatalf("corrupt encoding %q decoded", bad)
			}
		}
	})
}

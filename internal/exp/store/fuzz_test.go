package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame fuzzes the frame decoder on the bytes an entry file
// can hold after a crash, a bit flip or a foreign writer. For any input,
// DecodeFrameAny must not panic; a frame it accepts must survive a
// re-encode with the same key and payload (not the same bytes:
// binary.Uvarint also accepts non-minimal length encodings); and
// DecodeFrame against any other key — the hash-collision case Disk.Get
// guards against — must fail.
func FuzzDecodeFrame(f *testing.F) {
	seeds := []struct {
		key     string
		payload []byte
	}{
		{"pracsim/run/v3/small", []byte("small payload")},
		{"pracsim/run/v3/k", []byte("a payload worth protecting")},
		{"pracsim/run/v2/y", []byte("yy")},
		{"k", nil},
		{"", []byte("keyless")},
		{"pracsim/run/v3/large", bytes.Repeat([]byte("0123456789abcdef"), 64)},
	}
	for _, s := range seeds {
		frame := EncodeFrame(s.key, s.payload)
		f.Add(frame)
		for _, n := range []int{0, len(magic), len(magic) + 1, len(frame) / 2, len(frame) - 1} {
			f.Add(frame[:n])
		}
		for _, i := range []int{0, len(magic), len(magic) + 1, len(frame) - 33, len(frame) - 1} {
			flipped := append([]byte(nil), frame...)
			flipped[i] ^= 0x80
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		key, payload, err := DecodeFrameAny(data)
		if err == nil {
			gotKey, gotPayload, err := DecodeFrameAny(EncodeFrame(key, payload))
			if err != nil || gotKey != key || !bytes.Equal(gotPayload, payload) {
				t.Fatalf("re-encoded frame decodes to %q, %d bytes, %v; want %q, %d bytes",
					gotKey, len(gotPayload), err, key, len(payload))
			}
		}
		// key + "\x00" is never the key the frame carries; for
		// undecodable input every key is wrong.
		if _, err := DecodeFrame(data, key+"\x00"); err == nil {
			t.Fatalf("DecodeFrame accepted a frame for key %q under %q", key, key+"\x00")
		}
	})
}

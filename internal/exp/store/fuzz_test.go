package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrame fuzzes the frame decoder on the bytes a store server
// accepts from the network. For any input, DecodeFrameAny must not
// panic; a frame it accepts must survive a re-encode with the same key
// and payload (not the same bytes: binary.Uvarint also accepts
// non-minimal length encodings); and PutFrame under a hash the frame's
// key does not hash to must report ErrBadFrame without publishing.
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
	d, err := OpenDisk(f.TempDir())
	if err != nil {
		f.Fatal(err)
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
		// Hash(key + "\x00") differs from Hash(key); for undecodable
		// input any address is wrong.
		if _, _, err := d.PutFrame(Hash(key+"\x00"), data); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("PutFrame under a foreign hash = %v, want ErrBadFrame", err)
		}
	})
}

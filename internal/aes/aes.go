// Package aes implements AES-128 encryption with the classic four T-table
// construction used by OpenSSL/GnuPG-style software AES — the victim of the
// paper's PRACLeak side-channel attack (Section 3.3).
//
// Besides encrypting correctly (validated against crypto/aes in tests), the
// cipher can record the T-table indices touched by the first round; those
// indices are x_i = p_i XOR k_i, the secret-dependent memory accesses the
// attack observes through DRAM activation counts.
package aes

import "fmt"

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// TableEntries is the number of entries in each T-table.
const TableEntries = 256

// EntriesPerCacheLine is how many 4-byte T-table entries share a 64-byte
// cache line; the attack resolves indices to line granularity.
const EntriesPerCacheLine = 16

// CacheLinesPerTable is the number of cache lines a T-table spans.
const CacheLinesPerTable = TableEntries / EntriesPerCacheLine

var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

var rcon = [10]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// te holds the four encryption T-tables, built from the S-box at init.
var te [4][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		// Te0 row: [2s, s, s, 3s] packed big-endian.
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te[0][i] = w
		te[1][i] = w>>8 | w<<24
		te[2][i] = w>>16 | w<<16
		te[3][i] = w>>24 | w<<8
	}
}

// xtime multiplies by x in GF(2^8) modulo the AES polynomial.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// FirstRoundAccess is one T-table lookup performed by round 1.
type FirstRoundAccess struct {
	Table int  // which T-table (0..3)
	Index byte // table index = p_i XOR k_i for state byte i
	Byte  int  // state byte position i (0..15)
}

// Line reports the cache line within the table that the access touches.
func (a FirstRoundAccess) Line() int { return int(a.Index) / EntriesPerCacheLine }

// Cipher is an AES-128 T-table encryptor.
type Cipher struct {
	rk [44]uint32

	// Recorder, when non-nil, receives every first-round T-table access
	// of each Encrypt call, in lookup order.
	Recorder func(FirstRoundAccess)
}

// NewCipher expands a 16-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: key must be %d bytes, got %d", KeySize, len(key))
	}
	c := &Cipher{}
	for i := 0; i < 4; i++ {
		c.rk[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	for i := 4; i < 44; i++ {
		t := c.rk[i-1]
		if i%4 == 0 {
			t = subWord(t<<8|t>>24) ^ uint32(rcon[i/4-1])<<24
		}
		c.rk[i] = c.rk[i-4] ^ t
	}
	return c, nil
}

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 |
		uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 |
		uint32(sbox[w&0xff])
}

// Encrypt computes dst = AES-128(src). dst and src must be 16 bytes and may
// overlap.
func (c *Cipher) Encrypt(dst, src []byte) error {
	if len(src) != BlockSize || len(dst) != BlockSize {
		return fmt.Errorf("aes: blocks must be %d bytes (src %d, dst %d)", BlockSize, len(src), len(dst))
	}
	s := c.whiten(src)

	var t [4]uint32
	for round := 1; round < 10; round++ {
		for col := 0; col < 4; col++ {
			b0 := byte(s[col] >> 24)
			b1 := byte(s[(col+1)%4] >> 16)
			b2 := byte(s[(col+2)%4] >> 8)
			b3 := byte(s[(col+3)%4])
			if round == 1 && c.Recorder != nil {
				for _, a := range lookups(&s, col) {
					c.Recorder(a)
				}
			}
			t[col] = te[0][b0] ^ te[1][b1] ^ te[2][b2] ^ te[3][b3] ^ c.rk[4*round+col]
		}
		s = t
	}

	// Final round: S-box only, no MixColumns.
	for col := 0; col < 4; col++ {
		w := uint32(sbox[s[col]>>24])<<24 |
			uint32(sbox[s[(col+1)%4]>>16&0xff])<<16 |
			uint32(sbox[s[(col+2)%4]>>8&0xff])<<8 |
			uint32(sbox[s[(col+3)%4]&0xff])
		w ^= c.rk[40+col]
		dst[4*col] = byte(w >> 24)
		dst[4*col+1] = byte(w >> 16)
		dst[4*col+2] = byte(w >> 8)
		dst[4*col+3] = byte(w)
	}
	return nil
}

// whiten loads a 16-byte block as four big-endian columns and adds the
// first round key: the state round 1's T-table lookups index with.
func (c *Cipher) whiten(src []byte) [4]uint32 {
	var s [4]uint32
	for i := 0; i < 4; i++ {
		s[i] = uint32(src[4*i])<<24 | uint32(src[4*i+1])<<16 | uint32(src[4*i+2])<<8 | uint32(src[4*i+3])
		s[i] ^= c.rk[i]
	}
	return s
}

// lookups returns the four T-table lookups that compute output column col
// from state s, in lookup order.
func lookups(s *[4]uint32, col int) [4]FirstRoundAccess {
	return [4]FirstRoundAccess{
		{Table: 0, Index: byte(s[col] >> 24), Byte: 4 * col},
		{Table: 1, Index: byte(s[(col+1)%4] >> 16), Byte: (4*col + 5) % 16},
		{Table: 2, Index: byte(s[(col+2)%4] >> 8), Byte: (4*col + 10) % 16},
		{Table: 3, Index: byte(s[(col+3)%4]), Byte: (4*col + 15) % 16},
	}
}

// FirstRoundAccesses appends the 16 first-round T-table accesses for a
// plaintext to dst, in the order Encrypt performs them, without the rest
// of the encryption, and returns the extended slice. Access i has index
// p_i XOR k_i — the relation the side channel inverts. With a dst of
// spare capacity it allocates nothing.
func (c *Cipher) FirstRoundAccesses(dst []FirstRoundAccess, plaintext []byte) ([]FirstRoundAccess, error) {
	if len(plaintext) != BlockSize {
		return dst, fmt.Errorf("aes: plaintext must be %d bytes, got %d", BlockSize, len(plaintext))
	}
	s := c.whiten(plaintext)
	for col := 0; col < 4; col++ {
		l := lookups(&s, col)
		dst = append(dst, l[:]...)
	}
	return dst, nil
}

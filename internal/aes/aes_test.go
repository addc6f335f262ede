package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// FIPS-197 Appendix C.1 example vector.
func TestFIPS197Vector(t *testing.T) {
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	pt, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	want, _ := hex.DecodeString("69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if err := c.Encrypt(got, pt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encrypt = %x, want %x", got, want)
	}
}

// Property: the T-table cipher agrees with crypto/aes for random keys and
// plaintexts.
func TestMatchesStdlibProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, KeySize)
		pt := make([]byte, BlockSize)
		rng.Read(key)
		rng.Read(pt)
		ours, err := NewCipher(key)
		if err != nil {
			return false
		}
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			return false
		}
		got := make([]byte, BlockSize)
		want := make([]byte, BlockSize)
		if err := ours.Encrypt(got, pt); err != nil {
			return false
		}
		ref.Encrypt(want, pt)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstRoundIndicesArePXorK(t *testing.T) {
	key := make([]byte, KeySize)
	pt := make([]byte, BlockSize)
	rng := rand.New(rand.NewSource(42))
	rng.Read(key)
	rng.Read(pt)
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := c.FirstRoundAccesses(nil, pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 16 {
		t.Fatalf("first round accesses = %d, want 16", len(accs))
	}
	seenBytes := map[int]bool{}
	for _, a := range accs {
		want := pt[a.Byte] ^ key[a.Byte]
		if a.Index != want {
			t.Errorf("byte %d: index = %#x, want p^k = %#x", a.Byte, a.Index, want)
		}
		seenBytes[a.Byte] = true
	}
	if len(seenBytes) != 16 {
		t.Errorf("accesses cover %d distinct state bytes, want all 16", len(seenBytes))
	}
}

func TestFirstRoundTableAssignment(t *testing.T) {
	c, err := NewCipher(make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	accs, err := c.FirstRoundAccesses(nil, make([]byte, BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	// Byte 0 must be looked up in Te0 — the relation the chosen-plaintext
	// attack on k0 relies on.
	found := false
	for _, a := range accs {
		if a.Byte == 0 {
			found = true
			if a.Table != 0 {
				t.Errorf("byte 0 uses table %d, want Te0", a.Table)
			}
		}
	}
	if !found {
		t.Fatal("byte 0 never accessed in round 1")
	}
	// Four lookups per table.
	perTable := map[int]int{}
	for _, a := range accs {
		perTable[a.Table]++
	}
	for tbl := 0; tbl < 4; tbl++ {
		if perTable[tbl] != 4 {
			t.Errorf("table %d has %d lookups, want 4", tbl, perTable[tbl])
		}
	}
}

func TestLineGranularity(t *testing.T) {
	a := FirstRoundAccess{Index: 0x37}
	if a.Line() != 3 {
		t.Errorf("Line() = %d, want 3 (index 0x37 / 16 entries per line)", a.Line())
	}
	if CacheLinesPerTable != 16 {
		t.Errorf("CacheLinesPerTable = %d, want 16", CacheLinesPerTable)
	}
}

func TestRecorderOnlyFirstRound(t *testing.T) {
	c, err := NewCipher(make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	c.Recorder = func(FirstRoundAccess) { n++ }
	out := make([]byte, BlockSize)
	if err := c.Encrypt(out, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("recorder saw %d accesses, want 16 (first round only)", n)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := NewCipher(make([]byte, 8)); err == nil {
		t.Error("short key accepted")
	}
	c, err := NewCipher(make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Encrypt(make([]byte, 8), make([]byte, BlockSize)); err == nil {
		t.Error("short dst accepted")
	}
	if _, err := c.FirstRoundAccesses(nil, make([]byte, 8)); err == nil {
		t.Error("short plaintext accepted")
	}
}

package store

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkStorePut measures the entry write path (frame + checksum +
// temp file + atomic rename) at a typical encoded-RunResult size.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("bench/key-%d", i%64), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures the warm read path (read + frame validation
// + checksum verify) — the cost of a store hit.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := 0; i < 64; i++ {
		if err := s.Put(fmt.Sprintf("bench/key-%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(fmt.Sprintf("bench/key-%d", i%64)); !ok {
			b.Fatal("miss on warm store")
		}
	}
}

// warmStatKey has the shape and length of a real run key.
const warmStatKey = "pracsim/run/v4/warmup=20000/measured=40000/policy=2/nrh=1024/prac=1/" +
	"trefevery=0/skipontref=false/noreset=false/workload=433.milc"

// TestStatWarmKeyAllocGuard pins the cost of the dedup probe every
// submission makes per run key: Stat on a present entry reads only the
// frame header, sized to the key, so it allocates about 1 KB (path,
// file handle, file info, header) and never a 4 KB read buffer.
func TestStatWarmKeyAllocGuard(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(warmStatKey, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := d.Stat(warmStatKey); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Stat allocates %d B/op in %d allocs/op", perOp, (after.Mallocs-before.Mallocs)/runs)
	if perOp > 1536 {
		t.Errorf("Stat on a warm key allocates %d B/op, want <= 1536", perOp)
	}
}

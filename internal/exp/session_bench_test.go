package exp

import (
	"testing"

	"pracsim/internal/exp/store"
)

// BenchmarkStoreWarmSweep measures the persistent store's warm path —
// the whole Fig12 grid served from disk with zero simulations. The
// store is filled by an unmeasured cold session before the timer, so
// every measured iteration is a pure warm replay (what a repeat
// tpracsim/CI invocation pays). The custom store_* metrics report the
// hit/miss/byte behavior; BENCH_pr3.json holds PR 3's figures.
func BenchmarkStoreWarmSweep(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	scale := Scale{Warmup: 2_000, Measured: 4_000, Workloads: []string{"433.milc"}}
	cold := NewRunnerWith(scale, SessionOptions{Store: st})
	if _, err := cold.Fig12(); err != nil {
		b.Fatal(err)
	}
	coldStats := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := NewRunnerWith(scale, SessionOptions{Store: st})
		if _, err := sess.Fig12(); err != nil {
			b.Fatal(err)
		}
		if sess.Executed() != 0 {
			b.Fatalf("warm iteration executed %d simulations", sess.Executed())
		}
	}
	s := st.Stats()
	b.ReportMetric(float64(s.Hits-coldStats.Hits)/float64(b.N), "store_hits/op")
	b.ReportMetric(float64(s.Misses-coldStats.Misses)/float64(b.N), "store_misses/op")
	b.ReportMetric(float64(s.BytesRead-coldStats.BytesRead)/1024/float64(b.N), "store_kb_read/op")
	b.ReportMetric(float64(s.BytesWritten-coldStats.BytesWritten)/1024/float64(b.N), "store_kb_written/op")
}

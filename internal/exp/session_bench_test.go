package exp

import (
	"net/http/httptest"
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

// BenchmarkStoreRemoteWarmSweep measures the fleet-shared warm path —
// the whole Fig12 mini-grid served from a frame server over HTTP
// with zero simulations, through a fresh pure-HTTP client each
// iteration (no local tier, so every Get crosses the wire: what a new
// fleet worker pays against a warm server). BENCH_pr5.json holds PR 5's
// store_remote_* figures.
func BenchmarkStoreRemoteWarmSweep(b *testing.B) {
	disk, err := store.OpenDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(store.NewFrameHandler(disk))
	defer ts.Close()
	newStore := func() *store.Store {
		h, err := store.OpenHTTP(ts.URL)
		if err != nil {
			b.Fatal(err)
		}
		return store.NewStore(h)
	}
	scale := Scale{Warmup: 2_000, Measured: 4_000, Workloads: []string{"433.milc"}}
	cold := NewRunnerWith(scale, SessionOptions{Store: newStore()})
	if _, err := cold.Fig12(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last store.Stats
	for i := 0; i < b.N; i++ {
		st := newStore()
		sess := NewRunnerWith(scale, SessionOptions{Store: st})
		if _, err := sess.Fig12(); err != nil {
			b.Fatal(err)
		}
		if sess.Executed() != 0 {
			b.Fatalf("warm iteration executed %d simulations", sess.Executed())
		}
		last = st.Stats()
	}
	b.ReportMetric(float64(last.Remote.Hits), "store_remote_hits/op")
	b.ReportMetric(float64(last.Remote.Misses), "store_remote_misses/op")
	b.ReportMetric(float64(last.Remote.BytesRead)/1024, "store_remote_kb_read/op")
}

// BenchmarkStoreRemoteColdSweep measures the cold half of the remote
// contract for the same mini-grid: every simulation executes and writes
// through to the server. Cold-vs-warm is the headline win a shared
// store buys a fleet.
func BenchmarkStoreRemoteColdSweep(b *testing.B) {
	scale := Scale{Warmup: 2_000, Measured: 4_000, Workloads: []string{"433.milc"}}
	b.ReportAllocs()
	var last store.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		disk, err := store.OpenDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(store.NewFrameHandler(disk))
		h, err := store.OpenHTTP(ts.URL)
		if err != nil {
			b.Fatal(err)
		}
		st := store.NewStore(h)
		b.StartTimer()
		sess := NewRunnerWith(scale, SessionOptions{Store: st})
		if _, err := sess.Fig12(); err != nil {
			b.Fatal(err)
		}
		if sess.Executed() == 0 {
			b.Fatal("cold iteration executed nothing")
		}
		last = st.Stats()
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(last.Remote.Writes), "store_remote_writes/op")
	b.ReportMetric(float64(last.Remote.BytesWritten)/1024, "store_remote_kb_written/op")
}

package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/store"
)

// storeClient opens a pure-HTTP store front against a daemon's store
// routes, authenticating with token (the client reads $PRACSIMD_TOKEN).
func storeClient(t *testing.T, url, token string) (*store.HTTP, *store.Store) {
	t.Helper()
	t.Setenv(store.TokenEnv, token)
	h, err := store.OpenHTTP(url)
	if err != nil {
		t.Fatal(err)
	}
	return h, store.NewStore(h)
}

// metricsOf scrapes a daemon's /metrics page.
func metricsOf(t *testing.T, d *daemon) string {
	t.Helper()
	resp := roundTrip(t, "GET", d.ts.URL+"/metrics", "", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

// TestServiceServesStoreFrames is the one-daemon contract: runs a
// session publishes through the daemon's store routes land in the very
// store that deduplicates submissions, so submitting that grid
// afterwards queues nothing and executes nothing. The store routes sit
// behind the tenant tokens, and /metrics reports the store's footprint.
func TestServiceServesStoreFrames(t *testing.T) {
	wantCSV, wantExec := reference(t)
	d := startDaemon(t, Options{Dir: t.TempDir(), Tokens: "alice"})

	// A "remote machine" runs the grid against the daemon's store.
	_, front := storeClient(t, d.ts.URL, "alice")
	scale := testScales()["tiny"]
	scale.Serial = true
	sess := exp.NewRunnerWith(scale, exp.SessionOptions{Store: front})
	rep, err := sess.Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	if rep.CSV() != wantCSV || sess.Executed() != wantExec {
		t.Fatalf("publishing session executed %d (want %d), CSV equal %v", sess.Executed(), wantExec, rep.CSV() == wantCSV)
	}
	published := front.Stats().Writes
	if published != wantExec || front.Stats().Remote.Errors != 0 {
		t.Fatalf("published %d entries (remote %+v), want %d", published, front.Stats().Remote, wantExec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	alice := NewClient(d.ts.URL, "alice")
	st, err := alice.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 0 || st.WarmKeys != st.TotalKeys {
		t.Errorf("submission after publishing = %+v, want zero items and all keys warm", st)
	}
	fin, err := alice.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Executed != 0 || fin.FinalizeExecuted != 0 {
		t.Errorf("job = %s (%s), executed %d+%d; want done with 0", fin.State, fin.Error, fin.Executed, fin.FinalizeExecuted)
	}
	if got, err := alice.Result(ctx, st.ID, "fig12.csv"); err != nil || string(got) != wantCSV {
		t.Errorf("result CSV differs from the direct run (err %v)", err)
	}

	hash := store.Hash("pracsim/run/v3/k")
	for _, path := range []string{"/v1/e/" + hash, "/v1/stat/" + hash, "/v1/list"} {
		if got := statusOf(t, roundTrip(t, "GET", d.ts.URL+path, "", "")); got != http.StatusUnauthorized {
			t.Errorf("GET %s without a token = %d, want 401", path, got)
		}
	}

	if want := fmt.Sprintf("\npracsimd_store_entries %d\n", published); !strings.Contains(metricsOf(t, d), want) {
		t.Errorf("metrics missing %q", strings.TrimSpace(want))
	}
}

// TestStoreBearerTokenAuth: with tenant tokens configured, every store
// route refuses a wrong token, a tenant token opens them, and the
// probe/scrape endpoints stay open — while the Store front keeps
// degrading the refusals to misses, never failures.
func TestStoreBearerTokenAuth(t *testing.T) {
	d := startDaemon(t, Options{Dir: t.TempDir(), Tokens: "alice,bob"})

	authed, _ := storeClient(t, d.ts.URL, "bob")
	if err := authed.Put("pracsim/run/v3/k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, err := authed.Get("pracsim/run/v3/k"); err != nil || string(got) != "payload" {
		t.Errorf("tenant Get = %q, %v", got, err)
	}

	anon, front := storeClient(t, d.ts.URL, "wrong")
	if _, err := anon.Get("pracsim/run/v3/k"); err == nil || err == store.ErrNotFound {
		t.Errorf("wrong token read an entry: %v", err)
	}
	if err := anon.Put("pracsim/run/v3/k2", []byte("x")); err == nil {
		t.Error("wrong token wrote an entry")
	}
	if _, err := anon.List(); err == nil {
		t.Error("wrong token listed the store")
	}
	if err := anon.Delete("pracsim/run/v3/k"); err == nil || err == store.ErrNotFound {
		t.Errorf("wrong token deleted an entry: %v", err)
	}
	// The front degrades an auth failure like any other backend error.
	if _, ok := front.Get("pracsim/run/v3/k"); ok {
		t.Error("front served a hit through an auth failure")
	}
	if st := front.Stats(); st.Misses != 1 || st.Remote.Errors == 0 {
		t.Errorf("front stats = %+v, want a miss and remote errors", st)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		if got := statusOf(t, roundTrip(t, "GET", d.ts.URL+path, "", "")); got != http.StatusOK {
			t.Errorf("%s = %d, want open 200", path, got)
		}
	}
}

// TestStoreMetrics: /metrics reports the store routes as per-endpoint
// request counts, the frame traffic counters, the footprint gauges and,
// with a budget set, the lifecycle series.
func TestStoreMetrics(t *testing.T) {
	d := startDaemon(t, Options{Dir: t.TempDir(), Budget: 16 << 10})
	h, _ := storeClient(t, d.ts.URL, "")
	if err := h.Put("pracsim/run/v3/m", []byte("metric payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get("pracsim/run/v3/m"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get("pracsim/run/v3/absent"); err != store.ErrNotFound {
		t.Fatal(err)
	}

	metrics := metricsOf(t, d)
	for _, want := range []string{
		`pracsimd_requests_total{endpoint="store_get"} 2`,
		`pracsimd_requests_total{endpoint="store_put"} 1`,
		"pracsimd_store_hits_total 1",
		"pracsimd_store_misses_total 1",
		"pracsimd_store_put_rejects_total 0",
		fmt.Sprintf("pracsimd_store_bytes_in_total %d", len("metric payload")),
		"pracsimd_store_entries 1",
		"pracsimd_store_evicted_total 0",
		"pracsimd_store_budget_bytes 16384",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

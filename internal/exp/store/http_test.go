package store_test

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pracsim/internal/exp/store"
)

func disk(t *testing.T) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// httpClient opens a client with test-speed retry pacing (microsecond
// backoff instead of 50ms) and a breaker cooldown long past the test, so
// counter assertions are deterministic: an opened circuit stays open.
func httpClient(t *testing.T, url string) *store.HTTP {
	t.Helper()
	h, err := store.OpenHTTPWith(url, store.HTTPOptions{
		RetryBase:       time.Microsecond,
		BreakerCooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMisbehavingServerDegradesToMiss is the remote robustness contract:
// truncated bodies, checksum-corrupt frames, frames for a different key,
// server errors and a refused connection all surface as plain misses at
// the Store front — a broken server costs recomputes, never correctness
// or a crash.
func TestMisbehavingServerDegradesToMiss(t *testing.T) {
	const key = "pracsim/run/v3/victim"
	frame := store.EncodeFrame(key, []byte("a payload long enough to truncate meaningfully"))
	corrupt := append([]byte{}, frame...)
	corrupt[len(corrupt)-3] ^= 0x40

	cases := map[string]http.HandlerFunc{
		"truncated body": func(w http.ResponseWriter, r *http.Request) {
			w.Write(frame[:len(frame)/2])
		},
		"wrong checksum": func(w http.ResponseWriter, r *http.Request) {
			w.Write(corrupt)
		},
		"wrong key": func(w http.ResponseWriter, r *http.Request) {
			w.Write(store.EncodeFrame("pracsim/run/v3/other", []byte("other payload")))
		},
		"empty 200": func(w http.ResponseWriter, r *http.Request) {},
		"http 500": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "internal chaos", http.StatusInternalServerError)
		},
		"garbage body": func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("<html>a captive portal, say</html>"))
		},
	}
	for name, handler := range cases {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(handler)
			defer ts.Close()
			front := store.NewStore(httpClient(t, ts.URL))
			if got, ok := front.Get(key); ok {
				t.Fatalf("served a hit: %q", got)
			}
			st := front.Stats()
			if st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want exactly one miss", st)
			}
			if st.Remote.Hits != 0 {
				t.Errorf("remote stats claim a hit: %+v", st.Remote)
			}
		})
	}
}

// TestUnreachableServerDegrades: a connection refused (the server died,
// the port is wrong) is a miss on Get and an error on Put — which every
// caller treats as best-effort — with every attempt, retry and fast-fail
// visible in the remote stats rather than silently swallowed. The Get
// burns its full 3-attempt budget (3 errors, 2 retries); the Put's first
// two attempts reach the trip threshold of 5 consecutive failures, so
// its third fails fast as a skip.
func TestUnreachableServerDegrades(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // now nothing listens there

	front := store.NewStore(httpClient(t, url))
	if _, ok := front.Get("pracsim/run/v3/k"); ok {
		t.Fatal("hit from a dead server")
	}
	if err := front.Put("pracsim/run/v3/k", []byte("payload")); err == nil {
		t.Fatal("Put to a dead server reported success")
	}
	st := front.Stats()
	if st.Misses != 1 || st.Writes != 0 {
		t.Errorf("stats = %+v, want 1 miss / 0 writes", st)
	}
	if r := st.Remote; r.Errors != 5 || r.Retries != 4 || r.Skipped != 1 {
		t.Errorf("remote stats = %+v, want 5 errors / 4 retries / 1 skip", r)
	}
}

// TestTieredReadThrough: a remote hit populates the local tier, after
// which the key is served locally — even once the server is gone. Keys
// the local tier never saw degrade to misses when the remote dies.
func TestTieredReadThrough(t *testing.T) {
	remoteDisk := disk(t)
	ts := httptest.NewServer(store.NewFrameHandler(remoteDisk))
	defer ts.Close()

	// Seed the server directly.
	if err := remoteDisk.Put("pracsim/run/v3/hot", []byte("hot payload")); err != nil {
		t.Fatal(err)
	}
	if err := remoteDisk.Put("pracsim/run/v3/cold", []byte("cold payload")); err != nil {
		t.Fatal(err)
	}

	local := disk(t)
	remote := httpClient(t, ts.URL)
	front := store.NewStore(store.NewTiered(local, remote))

	if got, ok := front.Get("pracsim/run/v3/hot"); !ok || string(got) != "hot payload" {
		t.Fatalf("tiered Get = %q, %v", got, ok)
	}
	if got, err := local.Get("pracsim/run/v3/hot"); err != nil || string(got) != "hot payload" {
		t.Fatalf("remote hit did not back-fill the local tier: %q, %v", got, err)
	}

	ts.Close() // the fleet's server dies mid-campaign
	if got, ok := front.Get("pracsim/run/v3/hot"); !ok || string(got) != "hot payload" {
		t.Errorf("local tier lost the hot key after server death: %q, %v", got, ok)
	}
	if _, ok := front.Get("pracsim/run/v3/cold"); ok {
		t.Error("cold key served from nowhere")
	}
	st := front.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}
	if st.Remote.Hits != 1 || st.Remote.Errors == 0 {
		t.Errorf("remote stats = %+v, want 1 hit and the post-mortem errors", st.Remote)
	}
}

// TestTieredPutWritesBoth: one Put warms this machine and the shared
// server; a second worker (fresh local tier) reads it back remotely.
func TestTieredPutWritesBoth(t *testing.T) {
	remoteDisk := disk(t)
	ts := httptest.NewServer(store.NewFrameHandler(remoteDisk))
	defer ts.Close()

	local := disk(t)
	front := store.NewStore(store.NewTiered(local, httpClient(t, ts.URL)))
	payload := bytes.Repeat([]byte("result "), 512) // large enough to gzip
	if err := front.Put("pracsim/run/v3/k", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := local.Get("pracsim/run/v3/k"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("local tier missing the write: %d bytes, %v", len(got), err)
	}
	if got, err := remoteDisk.Get("pracsim/run/v3/k"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("server missing the write: %d bytes, %v", len(got), err)
	}

	other := store.NewStore(store.NewTiered(disk(t), httpClient(t, ts.URL)))
	if got, ok := other.Get("pracsim/run/v3/k"); !ok || !bytes.Equal(got, payload) {
		t.Errorf("second worker Get = %d bytes, %v", len(got), ok)
	}
}

// TestTieredDeleteRemovesBothTiers: pruning must not leave local copies
// resurrecting a deleted entry.
func TestTieredDeleteRemovesBothTiers(t *testing.T) {
	remoteDisk := disk(t)
	ts := httptest.NewServer(store.NewFrameHandler(remoteDisk))
	defer ts.Close()

	local := disk(t)
	tiered := store.NewTiered(local, httpClient(t, ts.URL))
	front := store.NewStore(tiered)
	if err := front.Put("pracsim/run/v2/stale", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := tiered.Delete("pracsim/run/v2/stale"); err != nil {
		t.Fatal(err)
	}
	if _, err := local.Get("pracsim/run/v2/stale"); err != store.ErrNotFound {
		t.Errorf("local copy survived the delete: %v", err)
	}
	if _, ok := front.Get("pracsim/run/v2/stale"); ok {
		t.Error("deleted entry still served")
	}
}

// TestCircuitBreakerFailsFast: after breakerTrip consecutive transport
// failures the client stops dialing and fails operations immediately
// (counted as skips), so a sweep against a black-holed server costs
// recomputes, not a timeout per run. The first two operations burn 5
// real attempts between them (tripping the breaker mid-second-op); with
// the cooldown far past the test, every later attempt is a fast-fail.
func TestCircuitBreakerFailsFast(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	front := store.NewStore(httpClient(t, url))
	for i := 0; i < 60; i++ {
		if _, ok := front.Get("pracsim/run/v3/k"); ok {
			t.Fatal("hit from a dead server")
		}
	}
	rs := front.Stats().Remote
	if rs.Errors != 5 {
		t.Errorf("real dials = %d, want exactly the 5 that tripped the breaker: %+v", rs.Errors, rs)
	}
	if rs.Skipped != 59 {
		t.Errorf("skips = %d, want 59 (one mid-op fast-fail + 58 whole ops): %+v", rs.Skipped, rs)
	}
}

// TestBreakerIgnoresServerErrors: HTTP error statuses prove the server
// is reachable and answering promptly — they must never open the
// breaker, or a server with one bad entry would lose its whole cache.
func TestBreakerIgnoresServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal chaos", http.StatusInternalServerError)
	}))
	defer ts.Close()
	front := store.NewStore(httpClient(t, ts.URL))
	for i := 0; i < 20; i++ {
		if _, ok := front.Get("pracsim/run/v3/k"); ok {
			t.Fatal("hit from a 500 server")
		}
	}
	// A 5xx is transient from the client's perspective, so every Get
	// burns its 3-attempt budget — 60 real requests, none skipped.
	rs := front.Stats().Remote
	if rs.Skipped != 0 || rs.Errors != 60 || rs.Retries != 40 {
		t.Errorf("remote stats = %+v, want 60 errors / 40 retries / no skips", rs)
	}
}

// TestBreakerHalfOpenRecovery is the recovery half of the breaker
// contract: a server that dies mid-run trips the circuit, and once it
// restarts (same address) the client's half-open probe rediscovers it —
// remote hits resume within one cooldown interval instead of the client
// failing fast forever.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	d := disk(t)
	if err := d.Put("pracsim/run/v3/hot", []byte("hot payload")); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := &http.Server{Handler: store.NewFrameHandler(d)}
	go srv.Serve(l)

	const cooldown = 100 * time.Millisecond
	h, err := store.OpenHTTPWith("http://"+addr, store.HTTPOptions{
		Attempts:        1, // isolate the breaker from retry pacing
		RetryBase:       time.Microsecond,
		BreakerCooldown: cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := store.NewStore(h)
	if _, ok := front.Get("pracsim/run/v3/hot"); !ok {
		t.Fatal("no hit from the live server")
	}

	srv.Close() // the shared store dies mid-fleet
	for i := 0; i < 10; i++ {
		front.Get("pracsim/run/v3/hot") // misses; trips the breaker
	}
	if rs := front.Stats().Remote; rs.Skipped == 0 {
		t.Fatalf("breaker never opened: %+v", rs)
	}

	// Restart on the same address; the next half-open probe must close
	// the circuit. Allow a few cooldowns of slack for the restart itself,
	// then require a hit within roughly one interval of polling.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &http.Server{Handler: store.NewFrameHandler(d)}
	go srv2.Serve(l2)
	defer srv2.Close()

	deadline := time.Now().Add(20 * cooldown)
	recovered := false
	for time.Now().Before(deadline) {
		before := front.Stats().Remote.Hits
		front.Get("pracsim/run/v3/hot")
		if front.Stats().Remote.Hits > before {
			recovered = true
			break
		}
		time.Sleep(cooldown / 10)
	}
	if !recovered {
		t.Fatalf("client never resumed remote hits after server restart: %+v", front.Stats().Remote)
	}
}

// TestPerAttemptTimeout: the deadline is per attempt, not per client —
// a black-holed request is abandoned after HTTPOptions.Timeout, and the
// operation (with Attempts:1) degrades to a miss on the Store front
// instead of stalling the worker.
func TestPerAttemptTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // black hole: hold until the client gives up
	}))
	defer ts.Close()

	h, err := store.OpenHTTPWith(ts.URL, store.HTTPOptions{
		Timeout:  50 * time.Millisecond,
		Attempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := store.NewStore(h)
	start := time.Now()
	if _, ok := front.Get("pracsim/run/v3/k"); ok {
		t.Fatal("hit from a black-holed server")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("timed-out Get took %v, want ~50ms", took)
	}
	if rs := front.Stats().Remote; rs.Errors != 1 {
		t.Errorf("remote stats = %+v, want the timeout counted once", rs)
	}
}

// TestTieredPruneReclaimsLocalOnlyOrphans: an orphaned-schema entry that
// exists only in the local tier (back-filled before someone pruned the
// server, or written while it was down) must still be listed and
// reclaimed by Prune.
func TestTieredPruneReclaimsLocalOnlyOrphans(t *testing.T) {
	remoteDisk := disk(t)
	ts := httptest.NewServer(store.NewFrameHandler(remoteDisk))
	defer ts.Close()
	local := disk(t)
	tiered := store.NewTiered(local, httpClient(t, ts.URL))

	if err := remoteDisk.Put("pracsim/run/v3/current", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := local.Put("pracsim/run/v1/orphan", []byte("local-only stale")); err != nil {
		t.Fatal(err)
	}

	infos, err := tiered.List()
	if err != nil || len(infos) != 2 {
		t.Fatalf("List = %v, %v; want both tiers' entries", infos, err)
	}
	pruned, _, err := store.Prune(tiered, "v3")
	if err != nil || pruned != 1 {
		t.Fatalf("Prune = %d, %v; want 1", pruned, err)
	}
	if _, err := local.Get("pracsim/run/v1/orphan"); err != store.ErrNotFound {
		t.Errorf("local-only orphan survived: %v", err)
	}
	if got, err := remoteDisk.Get("pracsim/run/v3/current"); err != nil || string(got) != "keep" {
		t.Errorf("current entry lost: %q, %v", got, err)
	}
}

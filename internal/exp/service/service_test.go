package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/shard"
	"pracsim/internal/fault"
	"pracsim/internal/retry"
)

// reference runs the tiny grid once, serially and directly (no store,
// no daemon), and memoizes the answer every service test compares
// against: the CSV every path must reproduce byte-identically and the
// execution count a zero-redundancy pipeline must exactly match.
var (
	refMu   sync.Mutex
	refCSV  string
	refExec int64
)

func reference(t *testing.T) (string, int64) {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if refCSV == "" {
		scale := testScales()["tiny"]
		scale.Serial = true
		sess := exp.NewRunner(scale)
		rep, err := sess.Run("fig12")
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		refCSV = rep.CSV()
		refExec = sess.Executed()
	}
	return refCSV, refExec
}

// daemon is one in-process pracsimd over an httptest listener.
type daemon struct {
	svc    *Server
	sum    RestoreSummary
	ts     *httptest.Server
	cancel context.CancelFunc
}

func startDaemon(t *testing.T, opts Options) *daemon {
	t.Helper()
	if opts.Scales == nil {
		opts.Scales = testScales()
	}
	svc, sum, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	svc.Start(ctx)
	d := &daemon{svc: svc, sum: sum, ts: httptest.NewServer(svc), cancel: cancel}
	t.Cleanup(d.stop)
	return d
}

// stop is idempotent, so tests may kill a daemon explicitly and the
// cleanup still runs.
func (d *daemon) stop() {
	d.ts.Close()
	d.cancel()
	d.svc.Close()
}

// roundTrip issues one raw request with optional bearer token and body.
func roundTrip(t *testing.T, method, url, token, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func statusOf(t *testing.T, resp *http.Response) int {
	t.Helper()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestServiceAuth(t *testing.T) {
	d := startDaemon(t, Options{Dir: t.TempDir(), Tokens: "alice,bob"})
	if got := statusOf(t, roundTrip(t, "GET", d.ts.URL+"/v1/jobs", "", "")); got != http.StatusUnauthorized {
		t.Errorf("no token: %d, want 401", got)
	}
	if got := statusOf(t, roundTrip(t, "GET", d.ts.URL+"/v1/jobs", "mallory", "")); got != http.StatusUnauthorized {
		t.Errorf("wrong token: %d, want 401", got)
	}
	if got := statusOf(t, roundTrip(t, "GET", d.ts.URL+"/v1/jobs", "alice", "")); got != http.StatusOK {
		t.Errorf("good token: %d, want 200", got)
	}
	// Liveness and metrics stay open for scrapers.
	if got := statusOf(t, roundTrip(t, "GET", d.ts.URL+"/healthz", "", "")); got != http.StatusOK {
		t.Errorf("healthz: %d, want 200", got)
	}
	if got := statusOf(t, roundTrip(t, "GET", d.ts.URL+"/metrics", "", "")); got != http.StatusOK {
		t.Errorf("metrics: %d, want 200", got)
	}
}

func TestServiceSubmitValidation(t *testing.T) {
	d := startDaemon(t, Options{Dir: t.TempDir(), Tokens: "alice"})
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{`},
		{"unknown experiment", `{"exps":["fig99"],"scale":"tiny"}`},
		{"unknown scale", `{"exps":["fig12"],"scale":"huge"}`},
		{"shards out of range", `{"exps":["fig12"],"scale":"tiny","shards":999}`},
		{"priority out of range", `{"exps":["fig12"],"scale":"tiny","priority":9}`},
		{"unknown field", `{"exps":["fig12"],"scale":"tiny","bogus":1}`},
		{"trailing bytes", `{"exps":["fig12"],"scale":"tiny"}garbage`},
		{"two specs", `{"exps":["fig12"],"scale":"tiny"} {"exps":["fig10"],"scale":"tiny"}`},
	}
	for _, tc := range cases {
		if got := statusOf(t, roundTrip(t, "POST", d.ts.URL+"/v1/jobs", "alice", tc.body)); got != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", tc.name, got)
		}
	}
}

// TestStoreMetrics: /metrics reports the daemon's store as disk
// gauges — entries, bytes and, with a budget set, the lifecycle series
// — and nothing about a network store surface, which pracsimd does not
// serve.
func TestStoreMetrics(t *testing.T) {
	d := startDaemon(t, Options{Dir: t.TempDir(), Budget: 16 << 10})
	if err := d.svc.store.Put("pracsim/run/v3/m", []byte("metric payload")); err != nil {
		t.Fatal(err)
	}
	resp := roundTrip(t, "GET", d.ts.URL+"/metrics", "", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"\npracsimd_store_entries 1\n",
		"\npracsimd_store_bytes ",
		"\npracsimd_store_evicted_total 0\n",
		"\npracsimd_store_budget_bytes 16384\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
	for _, gone := range []string{"pracsimd_store_hits_total", `endpoint="store_get"`} {
		if strings.Contains(metrics, gone) {
			t.Errorf("metrics still report %q", gone)
		}
	}
}

func TestServiceQuotaRejects(t *testing.T) {
	d := startDaemon(t, Options{Dir: t.TempDir(), Tokens: "alice,bob", Quota: 1})
	ctx := context.Background()
	alice := NewClient(d.ts.URL, "alice")
	if _, err := alice.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	_, err := alice.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny"})
	if !IsStatus(err, http.StatusTooManyRequests) {
		t.Errorf("over-quota submit err = %v, want 429", err)
	}
	// The quota is per tenant, not global.
	bob := NewClient(d.ts.URL, "bob")
	if _, err := bob.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny"}); err != nil {
		t.Errorf("other tenant's submit err = %v, want nil", err)
	}
}

// TestServiceEndToEndWarmDedup is the tentpole contract: a submitted
// grid executes via a pull worker and reproduces the direct run
// byte-for-byte with zero redundant simulations; a second tenant
// resubmitting the warm grid gets it for free, immediately.
func TestServiceEndToEndWarmDedup(t *testing.T) {
	wantCSV, wantExec := reference(t)
	d := startDaemon(t, Options{Dir: t.TempDir(), Tokens: "alice,bob"})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	alice := NewClient(d.ts.URL, "alice")
	st, err := alice.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State == StateDone {
		t.Fatal("cold grid reported done before any worker ran")
	}
	if st.TotalKeys == 0 || st.WarmKeys != 0 || st.Items == 0 {
		t.Fatalf("cold submission status %+v, want all keys cold and items queued", st)
	}
	if _, err := alice.Result(ctx, st.ID, "fig12.csv"); !IsStatus(err, http.StatusConflict) {
		t.Errorf("result fetch before done err = %v, want 409", err)
	}

	sum, err := RunWorker(ctx, WorkerOptions{
		URL: d.ts.URL, Token: "alice", Name: "w1",
		IdleExit: 500 * time.Millisecond,
		Poll:     retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Items != st.Items || sum.Failures != 0 {
		t.Errorf("worker summary %+v, want %d item(s) and no failures", sum, st.Items)
	}

	fin, err := alice.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Executed != wantExec {
		t.Errorf("job executed %d simulations, want exactly %d (each key once)", fin.Executed, wantExec)
	}
	if fin.FinalizeExecuted != 0 {
		t.Errorf("finalize executed %d simulations, want 0 (store fully warm)", fin.FinalizeExecuted)
	}
	got, err := alice.Result(ctx, st.ID, "fig12.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCSV {
		t.Error("service CSV differs from the direct tpracsim run")
	}

	// The SSE stream on a finished job delivers its snapshot and the done
	// marker, then ends.
	resp := roundTrip(t, "GET", d.ts.URL+"/v1/jobs/"+st.ID+"/events", "alice", "")
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), "event: status") ||
		!strings.Contains(string(events), "event: done") ||
		!strings.Contains(string(events), `"state":"done"`) {
		t.Errorf("SSE stream missing status/done events:\n%s", events)
	}

	// Warm resubmit from a second tenant (different shard fan-out, same
	// grid): nothing enqueues, no worker runs, the answer is identical.
	bob := NewClient(d.ts.URL, "bob")
	st2, err := bob.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Items != 0 || st2.WarmKeys != st2.TotalKeys {
		t.Errorf("warm resubmission status %+v, want zero items and all keys warm", st2)
	}
	fin2, err := bob.Wait(ctx, st2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != StateDone {
		t.Fatalf("warm job ended %s (%s), want done", fin2.State, fin2.Error)
	}
	if fin2.Executed != 0 || fin2.FinalizeExecuted != 0 {
		t.Errorf("warm resubmission executed %d+%d simulations, want 0",
			fin2.Executed, fin2.FinalizeExecuted)
	}
	got2, err := bob.Result(ctx, st2.ID, "fig12.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != wantCSV {
		t.Error("warm resubmission CSV differs from the direct run")
	}

	// Tenants are isolated: alice cannot see bob's job.
	if _, err := alice.Status(ctx, st2.ID); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("cross-tenant status err = %v, want 404", err)
	}

	// The daemon's metrics report the pipeline: submissions, the dedup,
	// and per-endpoint request accounting.
	resp = roundTrip(t, "GET", d.ts.URL+"/metrics", "", "")
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pracsimd_jobs_submitted_total 2",
		"pracsimd_jobs_deduped_total 1",
		"pracsimd_queue_depth 0",
		`pracsimd_requests_total{endpoint="submit"} 2`,
		`pracsimd_request_duration_seconds_count{endpoint="lease"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServiceKillRestartZeroReexecution is the crash contract
// end-to-end: kill the daemon after one of two work items acked, restart
// it over the same directory, finish the job — every simulation ran
// exactly once across both daemon lifetimes and the output is identical.
func TestServiceKillRestartZeroReexecution(t *testing.T) {
	wantCSV, wantExec := reference(t)
	dir := t.TempDir()
	d1 := startDaemon(t, Options{Dir: dir, Tokens: "alice"})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	alice := NewClient(d1.ts.URL, "alice")
	st, err := alice.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 2 {
		t.Fatalf("submission queued %d items, want 2", st.Items)
	}

	// Execute exactly one item by hand (a worker's steps, inline), so the
	// crash lands between the two.
	g, err := alice.Lease(ctx, "w1")
	if err != nil || g == nil {
		t.Fatalf("lease: grant=%v err=%v", g, err)
	}
	sp, err := shard.Parse(g.Item)
	if err != nil {
		t.Fatal(err)
	}
	sess := exp.NewRunnerWith(
		exp.Scale{Warmup: g.Warmup, Measured: g.Measured, Workloads: g.Workloads},
		exp.SessionOptions{Shard: sp})
	for _, name := range g.Exps {
		if _, err := sess.Run(name); err != nil {
			t.Fatal(err)
		}
	}
	shardFile := filepath.Join(t.TempDir(), "shard.runs")
	if _, err := sess.ExportShard(shardFile); err != nil {
		t.Fatal(err)
	}
	exec1 := sess.Executed()
	if err := alice.Ack(ctx, g.ID, shardFile, exec1); err != nil {
		t.Fatal(err)
	}

	// Kill. The submission (the job directory's spec.json) and the ack
	// (the renamed .runs file) reached the job directory as they
	// happened, so dropping the daemon here loses nothing a SIGKILL
	// would not.
	d1.stop()

	d2 := startDaemon(t, Options{Dir: dir, Tokens: "alice"})
	if d2.sum.Jobs != 1 || d2.sum.ItemsAcked != 1 || d2.sum.ItemsRequeued != 1 {
		t.Fatalf("resume summary %q, want 1 job with 1 acked and 1 requeued item", d2.sum)
	}
	alice2 := NewClient(d2.ts.URL, "alice")
	if _, err := RunWorker(ctx, WorkerOptions{
		URL: d2.ts.URL, Token: "alice", Name: "w2",
		IdleExit: 500 * time.Millisecond,
		Poll:     retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	fin, err := alice2.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("resumed job ended %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Executed != wantExec {
		t.Errorf("executed %d simulations across the restart, want exactly %d (zero re-execution)",
			fin.Executed, wantExec)
	}
	if fin.FinalizeExecuted != 0 {
		t.Errorf("finalize executed %d simulations after restart, want 0", fin.FinalizeExecuted)
	}
	got, err := alice2.Result(ctx, st.ID, "fig12.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCSV {
		t.Error("post-restart CSV differs from the direct run")
	}
}

// TestServiceChaosJobAPI storms the job pipeline's failpoints — failed
// submissions, failed grants, dropped ack deliveries, severed SSE
// streams — and requires the standing chaos contract: degraded latency
// and retries, never a wrong byte in the results.
func TestServiceChaosJobAPI(t *testing.T) {
	wantCSV, _ := reference(t)
	p, err := fault.Parse("seed=11;" +
		"service.submit:err@0.4;queue.lease:err@0.25;" +
		"queue.ack:err@0.25;service.stream:err@0.5")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	t.Cleanup(fault.Disable)

	d := startDaemon(t, Options{
		Dir: t.TempDir(), Tokens: "alice",
		LeaseTTL: time.Second, Attempts: 25,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	alice := NewClient(d.ts.URL, "alice")

	// Submission retries through injected pre-accept 500s.
	var st JobStatus
	for i := 0; ; i++ {
		st, err = alice.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 2})
		if err == nil {
			break
		}
		if !IsStatus(err, http.StatusInternalServerError) || i > 50 {
			t.Fatalf("submit under chaos: %v", err)
		}
	}

	// A reader on the SSE stream while faults sever it mid-flight; job
	// state must not care.
	sseCtx, sseCancel := context.WithCancel(ctx)
	defer sseCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(sseCtx, "GET", d.ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
		req.Header.Set("Authorization", "Bearer alice")
		if resp, rerr := http.DefaultClient.Do(req); rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	if _, err := RunWorker(ctx, WorkerOptions{
		URL: d.ts.URL, Token: "alice", Name: "w1",
		IdleExit: 3 * time.Second,
		Poll:     retry.Policy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	fin, err := alice.Wait(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sseCancel()
	wg.Wait()
	if fin.State != StateDone {
		t.Fatalf("chaos job ended %s (%s), want done", fin.State, fin.Error)
	}
	if fault.Fired() == 0 {
		t.Fatal("no faults fired; the storm proved nothing")
	}
	got, err := alice.Result(ctx, st.ID, "fig12.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCSV {
		t.Error("chaos run changed the CSV; faults must degrade, never corrupt")
	}
}

// TestWorkerShardWriteFailureReleasesLease: a worker that cannot write
// its shard result hands the lease back at once, so the item re-leases
// well inside the lease TTL instead of sitting out its expiry.
func TestWorkerShardWriteFailureReleasesLease(t *testing.T) {
	wantCSV, _ := reference(t)
	p, err := fault.Parse("seed=1;shard.write:errx1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	t.Cleanup(fault.Disable)

	d := startDaemon(t, Options{Dir: t.TempDir(), Tokens: "alice", LeaseTTL: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	alice := NewClient(d.ts.URL, "alice")
	st, err := alice.Submit(ctx, GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	workerCtx, stopWorker := context.WithCancel(ctx)
	type outcome struct {
		sum WorkerSummary
		err error
	}
	worker := make(chan outcome, 1)
	go func() {
		sum, err := RunWorker(workerCtx, WorkerOptions{
			URL: d.ts.URL, Token: "alice", Name: "w1",
			Poll: retry.Policy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		})
		worker <- outcome{sum, err}
	}()
	waitCtx, waitCancel := context.WithTimeout(ctx, 15*time.Second)
	defer waitCancel()
	fin, err := alice.Wait(waitCtx, st.ID, 50*time.Millisecond)
	stopWorker()
	w := <-worker
	if err != nil {
		t.Fatalf("job not done 15s into a 1m lease TTL (the failed item's lease was held to expiry?): %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", fin.State, fin.Error)
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.sum.Failures != 1 || fault.Fired() != 1 {
		t.Errorf("worker failures = %d, faults fired = %d; want 1 and 1 (%s)", w.sum.Failures, fault.Fired(), w.sum)
	}
	got, err := alice.Result(ctx, st.ID, "fig12.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCSV {
		t.Error("a retried item changed the CSV")
	}
}

package service

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/shard"
	"pracsim/internal/retry"
	"pracsim/internal/sim"
)

// testScales injects a budget small enough that restore-time GridKeys
// enumeration (and, in the service tests, actual execution) stays fast.
func testScales() map[string]exp.Scale {
	return map[string]exp.Scale{
		"tiny": {Warmup: 1_000, Measured: 2_000, Workloads: []string{"433.milc"}},
	}
}

// openQueueJournal opens (or reopens) the queue journal under dir,
// exactly as service.New does.
func openQueueJournal(t *testing.T, dir string) (*journal.Journal, *journal.Recovery) {
	t.Helper()
	jl, rec, err := journal.Open(filepath.Join(dir, "queue.journal"), journal.Options{
		Schema:      sim.SchemaVersion,
		Fingerprint: journal.Fingerprint(queueFingerprint),
	})
	if err != nil {
		t.Fatal(err)
	}
	return jl, rec
}

// newTestQueue builds a queue over a fresh (or existing) journal in dir
// and folds any replayed state in.
func newTestQueue(t *testing.T, dir string, opts QueueOptions) (*Queue, RestoreSummary) {
	t.Helper()
	jl, rec := openQueueJournal(t, dir)
	t.Cleanup(func() { jl.Close() })
	opts.Journal = jl
	q := NewQueue(opts)
	sum, err := q.Restore(rec, testScales())
	if err != nil {
		t.Fatal(err)
	}
	return q, sum
}

// submitJob registers a normalized tiny-grid job the way handleSubmit
// does, with every shard slice as a cold work item.
func submitJob(t *testing.T, q *Queue, token string, prio, shards int) JobStatus {
	t.Helper()
	spec := GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: shards, Priority: prio}
	exps, scale, err := spec.normalize(testScales())
	if err != nil {
		t.Fatal(err)
	}
	var items []shard.Spec
	for i := 0; i < shards; i++ {
		items = append(items, shard.Spec{Index: i, Count: shards})
	}
	st, err := q.Submit(token, spec, exps, scale, 8, 0, items)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestQueuePriorityBeforeFairness(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{})
	now := time.Now()
	normal := submitJob(t, q, "a", PriorityNormal, 1)
	high := submitJob(t, q, "b", PriorityHigh, 1)
	low := submitJob(t, q, "c", PriorityLow, 1)

	var got []string
	for i := 0; i < 3; i++ {
		g, ok := q.Lease("w", now)
		if !ok {
			t.Fatalf("lease %d: nothing ready", i)
		}
		got = append(got, g.Job)
	}
	want := []string{high.ID, normal.ID, low.ID}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease order = %v, want %v (high before normal before low)", got, want)
		}
	}
	if _, ok := q.Lease("w", now); ok {
		t.Error("empty queue still granted a lease")
	}
}

func TestQueueRoundRobinTokenFairness(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{})
	now := time.Now()
	// Token a floods the queue first; token b arrives after. Round-robin
	// within the priority level must alternate tokens, not drain a's
	// backlog first.
	a1 := submitJob(t, q, "a", PriorityNormal, 2)
	a2 := submitJob(t, q, "a", PriorityNormal, 2)
	b1 := submitJob(t, q, "b", PriorityNormal, 2)

	owner := map[string]string{a1.ID: "a", a2.ID: "a", b1.ID: "b"}
	var tokens []string
	for i := 0; i < 6; i++ {
		g, ok := q.Lease("w", now)
		if !ok {
			t.Fatalf("lease %d: nothing ready", i)
		}
		tokens = append(tokens, owner[g.Job])
	}
	// b has 2 items to a's 4: strict alternation while both have work,
	// then a's remainder.
	want := []string{"a", "b", "a", "b", "a", "a"}
	for i := range want {
		if tokens[i] != want[i] {
			t.Fatalf("token service order = %v, want %v", tokens, want)
		}
	}
}

func TestQueueQuota(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{Quota: 1})
	st := submitJob(t, q, "a", PriorityNormal, 1)
	spec := GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 1, Priority: PriorityNormal}
	exps, scale, err := spec.normalize(testScales())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("a", spec, exps, scale, 8, 0, []shard.Spec{{Index: 0, Count: 1}}); !errors.Is(err, ErrQuota) {
		t.Fatalf("second active job: err = %v, want ErrQuota", err)
	}
	// The quota is per token, and a terminal job frees its slot.
	submitJob(t, q, "b", PriorityNormal, 1)
	if _, ok := q.Cancel(st.ID, "a"); !ok {
		t.Fatal("cancel failed")
	}
	submitJob(t, q, "a", PriorityNormal, 1)
}

func TestQueueAckFlow(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{})
	now := time.Now()
	st := submitJob(t, q, "a", PriorityNormal, 2)

	g1, ok := q.Lease("w1", now)
	if !ok {
		t.Fatal("no lease")
	}
	g2, ok := q.Lease("w2", now)
	if !ok {
		t.Fatal("no second lease")
	}
	if g1.Item == g2.Item {
		t.Fatalf("both leases granted item %s", g1.Item)
	}
	out, err := q.Ack(g1.ID, "f1", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ready {
		t.Error("first of two acks reported Ready")
	}
	if cur, _ := q.Status(st.ID, "a"); cur.State != StateRunning || cur.Acked != 1 {
		t.Errorf("after first ack: state %s acked %d, want running/1", cur.State, cur.Acked)
	}
	// A consumed lease is gone: duplicate acks and heartbeats bounce.
	if _, err := q.Ack(g1.ID, "f1", 4, 3); !errors.Is(err, ErrNoLease) {
		t.Errorf("duplicate ack err = %v, want ErrNoLease", err)
	}
	if q.Heartbeat(g1.ID, now) {
		t.Error("heartbeat on a consumed lease succeeded")
	}
	out, err = q.Ack(g2.ID, "f2", 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ready {
		t.Error("last ack did not report Ready")
	}
	cur, _ := q.Status(st.ID, "a")
	if cur.State != StateFinalizing || cur.Executed != 8 {
		t.Errorf("after last ack: state %s executed %d, want finalizing/8", cur.State, cur.Executed)
	}
	q.FinalizeDone(st.ID, 0, []string{"fig12.csv"}, nil)
	cur, _ = q.Status(st.ID, "a")
	if cur.State != StateDone || len(cur.Results) != 1 {
		t.Errorf("after finalize: state %s results %v, want done/[fig12.csv]", cur.State, cur.Results)
	}
}

func TestQueueExpiryRequeueAndAttemptBudget(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{
		LeaseTTL: 50 * time.Millisecond,
		Attempts: 2,
		Requeue:  retry.Policy{Base: time.Nanosecond, Max: time.Nanosecond},
	})
	now := time.Now()
	st := submitJob(t, q, "a", PriorityNormal, 1)

	if _, ok := q.Lease("w", now); !ok {
		t.Fatal("no lease")
	}
	requeued := q.Sweep(now.Add(time.Second))
	if len(requeued) != 1 {
		t.Fatalf("sweep requeued %v, want one item", requeued)
	}
	if cur, _ := q.Status(st.ID, "a"); cur.Pending != 1 {
		t.Errorf("after expiry: pending %d, want 1", cur.Pending)
	}
	// Second grant exhausts the 2-attempt budget; its expiry fails the job.
	if _, ok := q.Lease("w", now.Add(2*time.Second)); !ok {
		t.Fatal("no re-lease after requeue")
	}
	q.Sweep(now.Add(4 * time.Second))
	cur, _ := q.Status(st.ID, "a")
	if cur.State != StateFailed || cur.Error == "" {
		t.Errorf("after budget exhaustion: state %s error %q, want failed with a cause", cur.State, cur.Error)
	}
	d := q.Stats()
	if d.Expiries != 2 || d.ItemFails != 1 {
		t.Errorf("stats expiries %d itemFails %d, want 2/1", d.Expiries, d.ItemFails)
	}
}

func TestQueueWorkerFailRequeues(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{
		Attempts: 3,
		Requeue:  retry.Policy{Base: time.Nanosecond, Max: time.Nanosecond},
	})
	now := time.Now()
	st := submitJob(t, q, "a", PriorityNormal, 1)
	g, _ := q.Lease("w", now)
	if err := q.Fail(g.ID, "boom", now); err != nil {
		t.Fatal(err)
	}
	if cur, _ := q.Status(st.ID, "a"); cur.State == StateFailed || cur.Pending != 1 {
		t.Errorf("after one failure: state %s pending %d, want requeued", cur.State, cur.Pending)
	}
	if err := q.Fail(g.ID, "again", now); !errors.Is(err, ErrNoLease) {
		t.Errorf("fail on a released lease err = %v, want ErrNoLease", err)
	}
}

func TestQueueCancelVoidsLeases(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{})
	now := time.Now()
	st := submitJob(t, q, "a", PriorityNormal, 1)
	g, _ := q.Lease("w", now)
	if _, ok := q.Cancel(st.ID, "b"); ok {
		t.Error("another token canceled the job")
	}
	cur, ok := q.Cancel(st.ID, "a")
	if !ok || cur.State != StateCanceled {
		t.Fatalf("cancel: ok=%v state=%s", ok, cur.State)
	}
	if q.Heartbeat(g.ID, now) {
		t.Error("heartbeat on a canceled job's lease succeeded")
	}
	if _, err := q.Ack(g.ID, "f", 1, 1); !errors.Is(err, ErrNoLease) {
		t.Errorf("ack after cancel err = %v, want ErrNoLease", err)
	}
}

func TestQueueStatusTokenScoped(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{})
	st := submitJob(t, q, "a", PriorityNormal, 1)
	if _, ok := q.Status(st.ID, "b"); ok {
		t.Error("another token read the job's status")
	}
	if jobs := q.List("b"); len(jobs) != 0 {
		t.Errorf("another token listed %d job(s)", len(jobs))
	}
	if jobs := q.List("a"); len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Errorf("owner list = %+v, want the one job", jobs)
	}
}

func TestQueueSubscribe(t *testing.T) {
	q, _ := newTestQueue(t, t.TempDir(), QueueOptions{})
	now := time.Now()
	st := submitJob(t, q, "a", PriorityNormal, 1)
	ch, cancel, ok := q.Subscribe(st.ID, "a")
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	next := func() (JobStatus, bool) {
		select {
		case ev, open := <-ch:
			return ev, open
		case <-time.After(5 * time.Second):
			t.Fatal("no event")
			return JobStatus{}, false
		}
	}
	if ev, _ := next(); ev.State != StateQueued {
		t.Errorf("initial snapshot state %s, want queued", ev.State)
	}
	q.Lease("w", now)
	if ev, _ := next(); ev.State != StateRunning {
		t.Errorf("post-lease event state %s, want running", ev.State)
	}
	q.Cancel(st.ID, "a")
	if ev, _ := next(); ev.State != StateCanceled {
		t.Errorf("terminal event state %s, want canceled", ev.State)
	}
	if _, open := next(); open {
		t.Error("channel still open after the terminal event")
	}
}

// TestQueueRestoreResumes is the crash contract at the queue layer: a
// journal replay adopts acked items (their work is never redone),
// requeues in-flight ones, and never reuses a job id.
func TestQueueRestoreResumes(t *testing.T) {
	dir := t.TempDir()
	q1, _ := newTestQueue(t, dir, QueueOptions{})
	now := time.Now()
	st := submitJob(t, q1, "a", PriorityNormal, 2)
	g1, _ := q1.Lease("w", now)
	if _, err := q1.Ack(g1.ID, "shard-file", 4, 7); err != nil {
		t.Fatal(err)
	}
	q1.Lease("w", now) // second item leased, never acked: the crash victim
	q1.Close()
	q1.opts.Journal.Close()

	q2, sum := newTestQueue(t, dir, QueueOptions{})
	if sum.Jobs != 1 || sum.Terminal != 0 || sum.ItemsAcked != 1 || sum.ItemsRequeued != 1 {
		t.Fatalf("restore summary %+v, want 1 job, 1 acked, 1 requeued", sum)
	}
	cur, ok := q2.Status(st.ID, "a")
	if !ok {
		t.Fatal("restored job not visible to its token")
	}
	if cur.State != StateRunning || cur.Acked != 1 || cur.Pending != 1 || cur.Executed != 7 {
		t.Errorf("restored status %+v, want running, 1 acked, 1 pending, 7 executed", cur)
	}
	// The restart voided the orphan lease: only the unacked item re-leases.
	g, ok := q2.Lease("w2", now)
	if !ok {
		t.Fatal("restored queue granted nothing")
	}
	if g.Job != st.ID {
		t.Errorf("re-lease from job %s, want %s", g.Job, st.ID)
	}
	if _, ok := q2.Lease("w2", now); ok {
		t.Error("restored queue re-leased the acked item")
	}
	// Ids never reuse across restarts.
	st2 := submitJob(t, q2, "a", PriorityNormal, 1)
	if st2.ID == st.ID {
		t.Errorf("restored queue reused job id %s", st.ID)
	}
}

func TestQueueRestoreFinalizingAndTerminal(t *testing.T) {
	dir := t.TempDir()
	q1, _ := newTestQueue(t, dir, QueueOptions{})
	now := time.Now()
	st := submitJob(t, q1, "a", PriorityNormal, 1)
	done := submitJob(t, q1, "a", PriorityNormal, 1)
	g, _ := q1.Lease("w", now)
	if _, err := q1.Ack(g.ID, "f", 4, 4); err != nil {
		t.Fatal(err)
	}
	// Job 2 runs to done before the crash; job 1 is acked but unassembled.
	g2, _ := q1.Lease("w", now)
	if _, err := q1.Ack(g2.ID, "f2", 4, 4); err != nil {
		t.Fatal(err)
	}
	q1.FinalizeDone(done.ID, 0, []string{"fig12.csv"}, nil)
	q1.Close()
	q1.opts.Journal.Close()

	q2, sum := newTestQueue(t, dir, QueueOptions{})
	if sum.Terminal != 1 {
		t.Errorf("restore terminal = %d, want 1", sum.Terminal)
	}
	if len(sum.Finalizing) != 1 || sum.Finalizing[0] != st.ID {
		t.Fatalf("restore finalizing = %v, want [%s]", sum.Finalizing, st.ID)
	}
	if ids := q2.allFinalizing(); len(ids) != 1 || ids[0] != st.ID {
		t.Errorf("allFinalizing = %v, want [%s]", ids, st.ID)
	}
	if cur, _ := q2.Status(done.ID, "a"); cur.State != StateDone {
		t.Errorf("terminal job restored as %s, want done", cur.State)
	}
}

// TestQueueRestoreKeepsDedupedItems: a restore brings a job back with
// exactly the work items it was queued with. A half-warm job keeps its
// one cold item (not every slice of its spec), and a fully-warm job
// stays in finalizing with no items, its warm-key count intact.
func TestQueueRestoreKeepsDedupedItems(t *testing.T) {
	dir := t.TempDir()
	q1, _ := newTestQueue(t, dir, QueueOptions{})
	spec := GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 4, Priority: PriorityNormal}
	exps, scale, err := spec.normalize(testScales())
	if err != nil {
		t.Fatal(err)
	}
	half, err := q1.Submit("a", spec, exps, scale, 6, 5, []shard.Spec{{Index: 2, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := q1.Submit("a", spec, exps, scale, 6, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != StateFinalizing {
		t.Fatalf("fully-warm job submitted as %s, want finalizing", warm.State)
	}
	q1.Close()
	q1.opts.Journal.Close()

	q2, sum := newTestQueue(t, dir, QueueOptions{})
	if sum.ItemsRequeued != 1 {
		t.Errorf("restore requeued %d item(s), want 1", sum.ItemsRequeued)
	}
	if len(sum.Finalizing) != 1 || sum.Finalizing[0] != warm.ID {
		t.Errorf("restore finalizing = %v, want [%s]", sum.Finalizing, warm.ID)
	}
	cur, _ := q2.Status(half.ID, "a")
	if cur.State != StateQueued || cur.Items != 1 || cur.Pending != 1 || cur.WarmKeys != 5 {
		t.Errorf("restored half-warm job %+v, want queued with 1 pending item and 5 warm keys", cur)
	}
	cur, _ = q2.Status(warm.ID, "a")
	if cur.State != StateFinalizing || cur.Items != 0 || cur.WarmKeys != 6 {
		t.Errorf("restored fully-warm job %+v, want finalizing with no items and 6 warm keys", cur)
	}
	g, ok := q2.Lease("w", time.Now())
	if !ok || g.Job != half.ID || g.Item != "2/4" {
		t.Fatalf("first lease after restore = %+v (ok=%v), want %s item 2/4", g, ok, half.ID)
	}
	if g, ok := q2.Lease("w", time.Now()); ok {
		t.Errorf("restored queue leased %s item %s; only one item was ever queued", g.Job, g.Item)
	}
}

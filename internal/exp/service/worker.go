package service

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/shard"
	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
	"pracsim/internal/retry"
)

// WorkerOptions configures one pull worker (`tpracsim -pull URL`).
type WorkerOptions struct {
	// URL is the daemon base ("http://host:8080"). Required.
	URL string
	// Token authenticates against the daemon ("" for an open one).
	Token string
	// Name identifies this worker in leases and daemon logs.
	Name string
	// Store, when non-nil, is the worker's local run store: a re-leased
	// item whose first attempt died after executing becomes store hits
	// instead of re-simulation.
	Store *store.Store
	// Workers caps the per-item session's simulation concurrency
	// (0 = all cores).
	Workers int
	// IdleExit, when positive, makes the worker exit cleanly after this
	// long without a lease — the batch mode CI uses. Zero runs until
	// ctx ends.
	IdleExit time.Duration
	// Poll paces the lease loop (lease polls and transient-error
	// backoff); the zero value is a sane default.
	Poll retry.Policy
	// Log, when non-nil, receives per-item progress lines.
	Log *log.Logger
}

// WorkerSummary reports what a worker accomplished.
type WorkerSummary struct {
	// Items counts work items completed (acked).
	Items int
	// Runs counts runs delivered across those items.
	Runs int
	// Executed counts simulations actually run (store hits excluded).
	Executed int64
	// Failures counts items that errored or whose ack was lost.
	Failures int
}

func (ws WorkerSummary) String() string {
	return fmt.Sprintf("worker: %d item(s) completed, %d run(s) delivered (%d executed), %d failure(s)",
		ws.Items, ws.Runs, ws.Executed, ws.Failures)
}

// sleepCtx waits d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// RunWorker runs the pull loop: lease an item, execute its shard slice
// of the grid, deliver the shard result, repeat. It returns when ctx
// ends or the idle-exit budget expires; transient daemon errors are
// absorbed with retry-policy pacing, never fatal.
func RunWorker(ctx context.Context, opts WorkerOptions) (WorkerSummary, error) {
	if opts.URL == "" {
		return WorkerSummary{}, fmt.Errorf("service: worker needs a daemon URL")
	}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opts.Poll.Base <= 0 {
		opts.Poll = retry.Policy{Base: 200 * time.Millisecond, Max: 3 * time.Second}
	}
	c := NewClient(opts.URL, opts.Token)
	var sum WorkerSummary
	idleSince := time.Now()
	backoff := 0
	for ctx.Err() == nil {
		grant, err := c.Lease(ctx, opts.Name)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			backoff++
			sleepCtx(ctx, opts.Poll.Delay("lease", min(backoff, 6)))
			continue
		}
		if grant == nil {
			if opts.IdleExit > 0 && time.Since(idleSince) >= opts.IdleExit {
				return sum, nil
			}
			backoff++
			sleepCtx(ctx, opts.Poll.Delay("idle", min(backoff, 6)))
			continue
		}
		backoff = 0
		runs, executed, err := runItem(ctx, c, grant, opts)
		idleSince = time.Now()
		if err != nil {
			sum.Failures++
			if opts.Log != nil {
				opts.Log.Printf("worker: job %s item %s: %v", grant.Job, grant.Item, err)
			}
			continue
		}
		sum.Items++
		sum.Runs += runs
		sum.Executed += executed
		if opts.Log != nil {
			// Per item, not at exit: a dispatch driver stops its
			// children without waiting for an exit summary.
			traffic := ""
			if opts.Store != nil {
				traffic = "; " + opts.Store.Stats().Report(opts.Store.Spec())
			}
			opts.Log.Printf("worker: job %s item %s delivered (%d runs, %d executed)%s",
				grant.Job, grant.Item, runs, executed, traffic)
		}
	}
	return sum, nil
}

// runItem executes one leased shard slice and delivers its result. The
// queue.ack failpoint fires at the delivery boundary: an injected error
// drops the ack (the lease expires and the item re-leases elsewhere),
// which is exactly the crash-between-execute-and-deliver case.
func runItem(ctx context.Context, c *Client, g *LeaseGrant, opts WorkerOptions) (runs int, executed int64, err error) {
	sp, err := shard.Parse(g.Item)
	if err != nil {
		c.Fail(ctx, g.ID, err.Error())
		return 0, 0, err
	}
	// Heartbeat until the item is resolved; a lost lease flags the work
	// as orphaned so the ack is skipped.
	hbCtx, stopHB := context.WithCancel(ctx)
	var lost atomic.Bool
	go func() {
		interval := time.Duration(g.TTLSecs) * time.Second / 3
		if interval < 100*time.Millisecond {
			interval = 100 * time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if herr := c.Heartbeat(hbCtx, g.ID); herr == ErrLeaseLost {
					lost.Store(true)
					return
				}
			}
		}
	}()
	defer stopHB()

	scale := exp.Scale{
		Warmup: g.Warmup, Measured: g.Measured,
		Workloads: g.Workloads, Workers: opts.Workers,
	}
	sess := exp.NewRunnerWith(scale, exp.SessionOptions{Store: opts.Store, Shard: sp})
	for _, name := range g.Exps {
		if _, rerr := sess.Run(name); rerr != nil {
			c.Fail(ctx, g.ID, fmt.Sprintf("%s: %v", name, rerr))
			return 0, 0, rerr
		}
	}
	if lost.Load() {
		return 0, 0, ErrLeaseLost
	}
	if act := fault.Fire(fault.QueueAck); act != nil && act.Kind == fault.Err {
		return 0, 0, act.Err("deliver " + g.Job + "/" + g.Item)
	}
	// A result this worker cannot write is one it cannot deliver: hand
	// the lease back now instead of letting it sit until it expires.
	tmp, err := os.CreateTemp("", "pracsim-ack-*.runs")
	if err != nil {
		c.Fail(ctx, g.ID, err.Error())
		return 0, 0, fmt.Errorf("service: %w", err)
	}
	tmpName := tmp.Name()
	tmp.Close()
	os.Remove(tmpName) // ExportShard publishes via its own temp+rename
	defer os.Remove(tmpName)
	runs, err = sess.ExportShard(tmpName)
	if err != nil {
		c.Fail(ctx, g.ID, err.Error())
		return 0, 0, err
	}
	executed = sess.Executed()
	// The upload retries through the shared policy; a lost lease is
	// permanent — the item is someone else's now.
	_, err = retry.Policy{Attempts: 5, Base: 300 * time.Millisecond}.Do(ctx, "ack "+g.ID,
		func(actx context.Context, attempt int) error {
			aerr := c.Ack(actx, g.ID, tmpName, executed)
			if aerr == ErrLeaseLost {
				return retry.Permanent(aerr)
			}
			return aerr
		})
	if err != nil {
		return 0, 0, err
	}
	return runs, executed, nil
}

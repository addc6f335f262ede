// Command pracsimd serves the paper's experiment grids as a service:
// clients POST grid specs (experiments × scale × shards, the same
// grammar as tpracsim's flags) to /v1/jobs, pull workers
// (`tpracsim -pull URL`) lease and execute the shard work items, and
// finished jobs serve their CSVs back over HTTP — one shared
// content-addressed store deduplicates everything, so a grid anyone has
// run before completes without executing a single simulation. The job
// API is the daemon's only network surface: runs reach its store
// through workers' acks, never through a remote -store.
//
// Usage:
//
//	pracsimd [-addr :8460] [-dir DIR] [-budget SIZE] [-tokens A,B,...]
//	         [-quota N] [-lease-ttl 30s] [-attempts 3] [-workers N] [-v]
//
// -dir holds the daemon's state: store/ (the run store, an ordinary
// disk store), queue.journal (the persistent job queue), jobs/{id}/
// (delivered shard files and result CSVs). The journal makes the queue
// crash-safe: a SIGKILLed daemon restarted over the same -dir adopts
// every acked work item and re-executes nothing.
//
// -budget bounds the store's disk footprint (e.g. 512MB) by evicting
// least-recently-accessed entries; an eviction costs a recompute, never
// a wrong figure.
//
// -tokens enables multi-tenant bearer auth (default $PRACSIMD_TOKENS):
// each token is a tenant with its own job listing, a -quota cap on
// concurrently active jobs, and a round-robin fair share of worker
// capacity within each priority level. Pull workers send theirs with
// `tpracsim -pull-token` (default $PRACSIMD_TOKEN). /healthz and
// /metrics stay open.
//
// SIGTERM drains: the listener stops, in-flight requests finish, the
// queue stops granting and the journal syncs — the checkpoint a restart
// resumes from.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pracsim/internal/exp/service"
	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
)

// tokensEnv is the default source of the -tokens list.
const tokensEnv = "PRACSIMD_TOKENS"

func main() {
	addr := flag.String("addr", ":8460", "listen address")
	dir := flag.String("dir", "", "data directory: store, queue journal, job results (default: pracsimd/ under the user cache dir)")
	budget := flag.String("budget", "", "disk budget for the run store, e.g. 512MB or 2GB (default: unbounded)")
	tokens := flag.String("tokens", os.Getenv(tokensEnv),
		"comma-separated bearer tokens, one per tenant (default $"+tokensEnv+"; empty = open)")
	quota := flag.Int("quota", 0, "max concurrently active jobs per token (0 = unlimited)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "worker heartbeat budget before an item is re-leased")
	attempts := flag.Int("attempts", 3, "lease attempts per work item before its job fails")
	workers := flag.Int("workers", 0, "finalize-session simulation concurrency (0 = all cores)")
	faults := flag.String("faults", os.Getenv(fault.EnvVar),
		"deterministic fault schedule, e.g. 'seed=7;queue.ack:err@0.2' (chaos testing; also $"+fault.EnvVar+")")
	verbose := flag.Bool("v", false, "log every request")
	flag.Parse()

	logger := log.New(os.Stderr, "pracsimd: ", log.LstdFlags)
	if *faults != "" {
		p, err := fault.Parse(*faults)
		if err != nil {
			logger.Fatal(err)
		}
		p.Salt = os.Getenv(fault.SaltEnvVar)
		p.LogTo = os.Stderr
		fault.Enable(p)
		logger.Printf("fault injection enabled: %s", *faults)
	}
	if *dir == "" {
		cache, err := os.UserCacheDir()
		if err != nil {
			logger.Fatalf("no data directory: %v (pass -dir)", err)
		}
		*dir = filepath.Join(cache, "pracsimd")
	}
	budgetBytes, err := store.ParseByteSize(*budget)
	if err != nil {
		logger.Fatal(err)
	}

	opts := service.Options{
		Dir:      *dir,
		Budget:   budgetBytes,
		Tokens:   *tokens,
		Quota:    *quota,
		LeaseTTL: *leaseTTL,
		Attempts: *attempts,
		Workers:  *workers,
		Log:      logger,
		Verbose:  *verbose,
	}
	svc, resume, err := service.New(opts)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Print(resume)

	// No WriteTimeout: /v1/jobs/{id}/events is a long-lived SSE stream.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	auth := "open"
	if *tokens != "" {
		auth = "bearer-token"
	}
	logger.Printf("serving experiment jobs from %s on %s (%s, lease TTL %s, store budget %s)",
		*dir, *addr, auth, *leaseTTL, cmp.Or(*budget, "unbounded"))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	svc.Start(ctx)

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	select {
	case err := <-done:
		logger.Fatal(err)
	case <-ctx.Done():
	}
	// Drain and checkpoint: stop accepting, finish in-flight requests,
	// then close the queue (journal sync included). A second signal
	// kills the drain wait.
	logger.Print("draining (signal received; again to force)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		logger.Printf("closing queue: %v", err)
		os.Exit(1)
	}
	logger.Print("stopped (queue checkpointed)")
}

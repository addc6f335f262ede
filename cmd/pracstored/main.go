// Command pracstored serves a content-addressed run store over HTTP, so
// the pull children of a dispatch fleet (tpracsim -dispatch N -store
// http://host:8420, each child reading through its own local tier), a CI
// matrix or several experiment campaigns share one warm store instead of
// each machine re-executing the same grid.
//
// The served directory is an ordinary disk store: pracstored can adopt a
// store warmed by local runs, and the directory stays readable by
// -store DIR if the server goes away. Entries travel as the store's
// self-validating frames and are checksum-verified on both ends; uploads
// publish via the same temp-file + atomic-rename path local stores use,
// so a client cut off mid-upload never tears an entry.
//
// Clients are strictly cache users: if pracstored is unreachable or
// returns garbage, they recompute locally — stopping the server can
// never break a figure.
//
// Usage:
//
//	pracstored [-addr :8420] [-dir DIR] [-budget 512MB] [-token SECRET] [-v]
//
// -dir defaults to the same user-cache store `-store auto` uses. -token
// (default $PRACSTORE_TOKEN) requires `Authorization: Bearer <token>` on
// every /v1/* route; /healthz and /metrics (Prometheus text format) stay
// open for probes and scrapers.
//
// -budget bounds the store's disk footprint: when a write pushes past
// it, a background sweep evicts least-recently-accessed entries until
// the store is back under budget. An evicted entry is a miss — the
// client recomputes and usually re-publishes it — so a budget can cost
// time, never correctness. -tmp-sweep-age tunes how stale an orphaned
// put-*.tmp file must be before the startup sweep removes it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pracsim/internal/exp/store"
	"pracsim/internal/exp/store/server"
	"pracsim/internal/fault"
)

func main() {
	addr := flag.String("addr", ":8420", "listen address")
	dir := flag.String("dir", "", "store directory (default: the -store auto user-cache dir)")
	budget := flag.String("budget", "", "disk budget for the store, e.g. 512MB or 2GB (default: unbounded); least-recently-accessed entries are evicted when a write pushes past it")
	tmpSweepAge := flag.Duration("tmp-sweep-age", store.DefaultTmpSweepAge,
		"age past which an orphaned put-*.tmp file is swept at startup")
	token := flag.String("token", os.Getenv(store.TokenEnv),
		"bearer token required on /v1/* routes (default $"+store.TokenEnv+"; empty = no auth)")
	faults := flag.String("faults", os.Getenv(fault.EnvVar),
		"deterministic fault schedule, e.g. 'seed=7;server.get:trunc@0.2' (chaos testing; also $"+fault.EnvVar+")")
	verbose := flag.Bool("v", false, "log every request")
	flag.Parse()

	logger := log.New(os.Stderr, "pracstored: ", log.LstdFlags)
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
		d, err := store.DefaultDir()
		if err != nil {
			logger.Fatalf("no store directory: %v (pass -dir)", err)
		}
		*dir = d
	}
	budgetBytes, err := store.ParseByteSize(*budget)
	if err != nil {
		logger.Fatal(err)
	}
	disk, err := store.OpenDiskWith(*dir, store.DiskOptions{
		BudgetBytes: budgetBytes,
		TmpSweepAge: *tmpSweepAge,
	})
	if err != nil {
		logger.Fatal(err)
	}

	opts := server.Options{Token: *token}
	if *verbose {
		opts.Log = logger
	}
	srv := &http.Server{
		Addr:         *addr,
		Handler:      server.New(disk, opts),
		ReadTimeout:  2 * time.Minute,
		WriteTimeout: 2 * time.Minute,
	}

	auth := "open"
	if *token != "" {
		auth = "bearer-token"
	}
	if budgetBytes > 0 {
		logger.Printf("serving %s on %s (%s, budget %.1f MB)", disk.Dir(), *addr, auth, float64(budgetBytes)/(1<<20))
	} else {
		logger.Printf("serving %s on %s (%s)", disk.Dir(), *addr, auth)
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests: an
	// interrupted PUT is retried or absorbed by the client's recompute,
	// but a clean shutdown should not cut connections mid-frame.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	select {
	case err := <-done:
		logger.Fatal(err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pracstored: shutdown:", err)
		os.Exit(1)
	}
	logger.Print("stopped")
}

// Command tpracsim runs the TPRAC performance and energy experiments
// (Figures 10-14, Table 5) and prints their reports, optionally writing
// CSV files.
//
// All experiments share one session: independent (variant, workload)
// simulations fan out across -workers goroutines, the session's
// single-flight run cache means -exp all never executes the same
// configuration twice (e.g. Table 5 reuses Figure 13's TPRAC runs), and
// the persistent run store (-store, on by default) memoizes results
// across invocations — a warm second run executes zero new simulations
// and reproduces byte-identical figures. The store is also how an
// interrupted invocation resumes: each run is stored as soon as it
// finishes, so re-running with the same arguments (SIGINT, SIGKILL or
// OOM kill alike) executes only the runs that never reached the store.
//
// -dispatch N splits a grid across processes: it serves a pracsimd job
// queue in process on loopback, submits the grid as N shard work items
// (deterministic slices of the run keys), and spawns N pull children
// (`-pull`, re-execing this binary or any fleet via -dispatch-cmd).
// Children lease items, upload their shard results over HTTP and are
// respawned if they exit early; a killed child's item re-leases when its
// lease expires. The driver merges the acked shard files and renders the
// figures, bit-identical to an undispatched run.
//
// The store is a local directory. To share runs across machines, submit
// the grid to a pracsimd daemon (see cmd/pracsimd) and run -pull workers
// against it: the daemon deduplicates every submission against its own
// store, so a grid anyone has run before executes nothing anywhere. A
// URL-shaped -store is rejected with exit status 2.
//
// Usage:
//
//	tpracsim -exp fig10|fig11|fig12|fig13|fig14|table5|rfmpb|all
//	         [-scale quick|full] [-workers N] [-serial]
//	         [-store DIR|auto|off] [-store-budget SIZE] [-csvdir DIR]
//	         [-dispatch N [-dispatch-cmd TEMPLATE]]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	tpracsim -store-info|-store-prune [-store DIR|auto]
//	tpracsim -pull http://host:8460 [-pull-token SECRET] [-pull-idle-exit 30s]
//
// -pull turns this process into a pull worker for a pracsimd experiment
// service (see cmd/pracsimd): it leases shard work items from the
// daemon, executes them against its -store, and uploads each shard
// result file, repeating until signaled (or until -pull-idle-exit of
// queue silence). The daemon's lease carries the grid's experiments and
// scale, so a pull worker needs no -exp/-scale of its own. -pull-token
// defaults to $PRACSIMD_TOKEN; a dispatch child gets the fleet's
// per-run queue token through the flag.
//
// -store-budget bounds the store's disk footprint (e.g.
// 512MB): least-recently-accessed entries are evicted in the background
// when a write pushes past it, and an evicted entry is an ordinary miss
// — recomputed and usually re-published, never an error. Under
// -dispatch the budget is forwarded to every pull child.
//
// -cpuprofile and -memprofile profile the invocation itself with
// runtime/pprof, for `go tool pprof`: the CPU profile covers the whole
// run, and the memory profile, written at a normal exit, holds every
// sampled allocation since start (pprof's alloc_space and alloc_objects).
//
// SIGINT/SIGTERM exit with status 130; under -dispatch the first signal
// drains the fleet (a second exits immediately). Every run finished
// before the signal is already in the store, children's runs included,
// so a rerun resumes from there. With -store off nothing survives the
// process and a rerun starts over.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/service"
	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
	"pracsim/internal/retry"
	"pracsim/internal/sim"
)

// tokenEnv is the default source of -pull-token, so the secret need not
// appear in argv.
const tokenEnv = "PRACSIMD_TOKEN"

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tpracsim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	which := flag.String("exp", "fig10", "experiment: fig10, fig11, fig12, fig13, fig14, table5, rfmpb or all")
	scaleName := flag.String("scale", "quick", "quick (8 workloads, short budgets) or full (all 50 workloads)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all cores)")
	serial := flag.Bool("serial", false, "force single-threaded execution (same results, for debugging)")
	perCycle := flag.Bool("percycle", false, "tick every component every cycle instead of eliding idle cycles (same results, slower)")
	differential := flag.Bool("differential", false, "run every simulation under both clockings and fail on any divergence")
	storeMode := flag.String("store", "auto", "persistent run store: a directory, 'auto' (user cache dir) or 'off'")
	storeBudget := flag.String("store-budget", "", "disk budget for the run store, e.g. 512MB (default: unbounded); least-recently-accessed entries are evicted when a write pushes past it")
	faults := flag.String("faults", os.Getenv(fault.EnvVar), "deterministic fault schedule, e.g. 'seed=7;store.disk.get:err@0.2;dispatch.worker:kill@0.1' (chaos testing; also $"+fault.EnvVar+")")
	storeInfo := flag.Bool("store-info", false, "print the store's entry count, bytes, age range and per-schema footprint, then exit")
	storePrune := flag.Bool("store-prune", false, "delete entries from orphaned (non-current) schema versions, then exit")
	dispatchN := flag.Int("dispatch", 0, "run the grid as N work items on an in-process job queue with N pull children, then merge their results (0 = off)")
	dispatchCmd := flag.String("dispatch-cmd", "", "child command template run via sh -c, with {args}/{slot}/{port} placeholders (default: re-exec this binary)")
	csvDir := flag.String("csvdir", "", "directory to write CSV files into (optional)")
	pullURL := flag.String("pull", "", "run as a pull worker for the pracsimd experiment service at this URL (leases and executes shard work items until signaled)")
	pullToken := flag.String("pull-token", os.Getenv(tokenEnv), "bearer token for -pull (default $"+tokenEnv+")")
	pullIdleExit := flag.Duration("pull-idle-exit", 0, "with -pull: exit cleanly after this long without leased work (0 = run until signaled)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memProfile := flag.String("memprofile", "", "at exit, write a memory profile of every allocation since start to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProfiles()

	if *faults != "" {
		p, err := fault.Parse(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpracsim: %v\n", err)
			os.Exit(2)
		}
		p.Salt = os.Getenv(fault.SaltEnvVar)
		p.LogTo = os.Stderr
		fault.Enable(p)
		// Dispatch children inherit the schedule through the environment
		// (the fleet decorrelates them per launch via the salt variable).
		os.Setenv(fault.EnvVar, *faults)
	}

	var scale exp.Scale
	switch *scaleName {
	case "quick":
		scale = exp.QuickScale()
	case "full":
		scale = exp.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "tpracsim: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	scale.Workers = *workers
	scale.Serial = *serial
	scale.PerCycle = *perCycle
	scale.Differential = *differential

	storeBudgetBytes, err := store.ParseByteSize(*storeBudget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpracsim: -store-budget: %v\n", err)
		os.Exit(2)
	}
	st, warn, err := store.Resolve(*storeMode, store.DiskOptions{BudgetBytes: storeBudgetBytes})
	if warn != "" {
		fmt.Fprintln(os.Stderr, "tpracsim: "+warn)
	}
	if errors.Is(err, store.ErrURLSpec) {
		fmt.Fprintf(os.Stderr, "tpracsim: %v\n", err)
		os.Exit(2)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *storeInfo || *storePrune {
		if st == nil {
			fmt.Fprintln(os.Stderr, "tpracsim: -store-info/-store-prune need a store; pass -store DIR")
			os.Exit(2)
		}
		runStoreMaintenance(st, *storePrune, *storeInfo)
		return
	}
	if *pullURL != "" {
		if *dispatchN > 0 {
			fmt.Fprintln(os.Stderr, "tpracsim: -pull is exclusive with -dispatch (the daemon assigns the work)")
			os.Exit(2)
		}
		runPull(*pullURL, *pullToken, st, *workers, *pullIdleExit)
		return
	}
	if *dispatchN > 0 && (*perCycle || *differential) {
		// The validation clockings exist to actually execute every
		// simulation here; a session in those modes ignores imported
		// shard results by design, so a dispatched fleet's work would
		// be silently discarded and the grid re-run locally.
		fmt.Fprintln(os.Stderr, "tpracsim: -dispatch cannot be combined with -percycle/-differential (validation modes must execute locally)")
		os.Exit(2)
	}

	// First signal under -dispatch: drain — the fleet is cancelled,
	// group-killing its children. Second signal (or any signal without
	// a fleet): exit. Finished runs are already in the store either way.
	dispatchCtx, cancelDispatch := context.WithCancel(context.Background())
	defer cancelDispatch()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	dispatching := *dispatchN > 0
	go func() {
		<-sigs
		if dispatching {
			fmt.Fprintln(os.Stderr, "tpracsim: signal received — draining fleet (repeat to exit immediately)")
			cancelDispatch()
			<-sigs
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "tpracsim: signal received")
		os.Exit(130)
	}()

	session := exp.NewRunnerWith(scale, exp.SessionOptions{Store: st})

	// Validate the selection before any work — in particular before a
	// dispatch fleet spawns and burns its respawns on children that
	// would all exit with this same error. The selection grammar lives in
	// the exp package (ExpandExperiments), shared with pracsimd's grid
	// specs.
	selected, err := exp.ExpandExperiments([]string{*which})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpracsim: %v\n", err)
		os.Exit(2)
	}

	if *dispatchN > 0 {
		if err := runDispatch(dispatchCtx, session, st, *dispatchN, *dispatchCmd, *storeBudget,
			*which, *scaleName, *workers, *serial); err != nil {
			if errors.Is(err, service.ErrInterrupted) {
				if st != nil {
					fmt.Fprintf(os.Stderr, "tpracsim: %v — re-run with the same -store to resume: only runs the children had not stored execute again\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "tpracsim: %v (-store off: a rerun executes every run again)\n", err)
				}
				os.Exit(130)
			}
			fatalf("%v", err)
		}
	}

	for _, name := range selected {
		fmt.Printf("running %s at %s scale...\n", name, *scaleName)
		before := session.Executed()
		res, err := session.Run(name)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Printf("(%d new simulations; session cache holds %d)\n",
			session.Executed()-before, session.CachedRuns())
		fmt.Println(res.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fatalf("writing %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	// Execution telemetry: store traffic, aggregate simulation rate,
	// elision wins and the straggler simulations that dominated the
	// sweep's wall-clock.
	fmt.Println(session.TelemetryReport(5))
}

// startProfiles starts the -cpuprofile CPU profile and returns the func
// that stops it and writes the -memprofile allocation profile. Both are
// written only on a normal exit from main.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tpracsim: -cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "tpracsim: -memprofile: %v\n", err)
			}
		}
	}, nil
}

// writeAllocProfile writes the allocs profile: every sampled allocation
// since the process started, live or freed.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runPull serves -pull: the pull-worker loop against a pracsimd daemon.
// SIGINT/SIGTERM drain — the current item finishes (or its ack is
// retried) before the loop exits with a summary.
func runPull(url, token string, st *store.Store, workers int, idleExit time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	host, _ := os.Hostname()
	sum, err := service.RunWorker(ctx, service.WorkerOptions{
		URL:      url,
		Token:    token,
		Name:     fmt.Sprintf("%s-%d", host, os.Getpid()),
		Store:    st,
		Workers:  workers,
		IdleExit: idleExit,
		Log:      log.New(os.Stderr, "tpracsim: ", 0),
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(sum)
	if n := fault.Fired(); n > 0 {
		fmt.Printf("faults injected: %d\n", n)
	}
}

// runDispatch runs the selected experiments on an in-process job queue
// with n pull children and merges the acked shard files into the
// session, which then assembles figures from fully-warm caches. Errors
// return (rather than exiting) so the deferred work-directory cleanup
// runs on failure paths too.
func runDispatch(ctx context.Context, session *exp.Runner, st *store.Store,
	n int, template, storeBudget, which, scaleName string, workers int, serial bool) error {
	// A local fleet (no template) shares this machine's cores, so by
	// default each child gets an equal slice instead of all inheriting
	// -workers 0 (all cores) and oversubscribing the CPU n-fold; an
	// explicit -workers or a fleet template (remote hosts own their
	// cores) passes through untouched.
	if serial {
		workers = 1
	} else if template == "" && workers == 0 {
		workers = max(runtime.NumCPU()/n, 1)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for dispatch: %w", err)
	}
	// Children reopen the same store directory.
	storeSpec := "off"
	if st != nil {
		storeSpec = st.Spec()
	}
	argv := []string{exe, "-store", storeSpec, "-workers", strconv.Itoa(workers)}
	if storeBudget != "" {
		argv = append(argv, "-store-budget", storeBudget)
	}
	// The queue's work directory is per-run scratch; a rerun resumes
	// from the children's store, not from it.
	dir, err := os.MkdirTemp("", "tpracsim-dispatch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, files, err := service.RunFleet(ctx, service.FleetOptions{
		Exps: []string{which}, Scale: scaleName, Shards: n,
		Dir: dir, Argv: argv, Template: template, Log: os.Stdout,
	})
	if err != nil {
		return err
	}
	// A transient read failure (NFS hiccup, an injected shard.read
	// fault) should cost a retry, not the whole fleet's work.
	imported, err := importWithRetry(session, files)
	if err != nil {
		return fmt.Errorf("merging dispatched shards: %w", err)
	}
	fmt.Printf("merged %d runs from %d dispatched shard(s)\n", imported, len(files))
	return nil
}

// importWithRetry merges shard files under the unified retry policy:
// shard reads are plain file I/O, so a transient failure costs a paced
// re-read rather than discarding a fleet's worth of simulation.
func importWithRetry(session *exp.Runner, files []string) (n int, err error) {
	_, err = retry.Policy{Attempts: 3, Base: 100 * time.Millisecond}.Do(
		context.Background(), "merge shards", func(context.Context, int) (ierr error) {
			n, ierr = session.ImportShards(files...)
			return ierr
		})
	return n, err
}

// runStoreMaintenance serves -store-info / -store-prune. Prune runs
// before info, so `-store-prune -store-info` shows the after-state.
func runStoreMaintenance(st *store.Store, prune, info bool) {
	d := st.Disk()
	if prune {
		current := fmt.Sprintf("v%d", sim.SchemaVersion)
		n, bytes, err := store.Prune(d, current)
		if err != nil {
			fatalf("pruning %s: %v", st.Spec(), err)
		}
		fmt.Printf("pruned %d entries (%.1f KB) from schema versions other than %s\n",
			n, float64(bytes)/1024, current)
	}
	if info {
		rep, err := store.Collect(d)
		if err != nil {
			fatalf("listing %s: %v", st.Spec(), err)
		}
		fmt.Println(rep.Render())
		fmt.Printf("current schema: v%d\n", sim.SchemaVersion)
	}
}

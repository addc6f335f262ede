// Package service implements pracsimd, the experiment-as-a-service
// daemon: the paper's grids (Figures 10-14, Table 5, the RFMpb
// extension) exposed over HTTP/JSON so clients submit work instead of
// running tpracsim by hand, and a fleet of pull-model workers executes
// it against one shared content-addressed store.
//
// A submitted grid spec (experiments × scale × shard count, validated
// against exactly tpracsim's flag grammar) is deduplicated before it is
// queued: the daemon enumerates the grid's run keys (exp.GridKeys) and
// probes its store, and only shard slices that still own at least one
// cold key become work items — resubmitting a warm grid enqueues
// nothing and completes immediately from the store. Work items are
// leased to pull workers (`tpracsim -pull URL`) under heartbeat-renewed
// leases; a worker that dies simply stops heartbeating and its item is
// re-leased with retry-policy pacing. Acked shard results are imported
// into the daemon's store (which is both the dedup oracle and the
// durability layer) and, once a job's last item lands, a finalize
// session assembles the figures/tables from the fully-warm store into
// per-job CSVs.
//
// Every submission, lease grant and ack is journaled (queue.journal
// under Dir, with job/lease/ack records), so a SIGKILLed daemon resumes
// its queue with zero re-executed runs: acked items are adopted, unacked
// items re-lease, completed-but-unassembled jobs re-finalize. Tenancy
// is by bearer token: per-token concurrent-job quotas, three priority
// levels, and round-robin token fairness within each level.
//
// Routes (all /v1/* under bearer auth when tokens are configured):
//
//	POST   /v1/jobs                      submit a grid spec; 201 + job status
//	GET    /v1/jobs                      list the token's jobs
//	GET    /v1/jobs/{id}                 job status
//	DELETE /v1/jobs/{id}                 cancel
//	GET    /v1/jobs/{id}/events          live progress (SSE)
//	GET    /v1/jobs/{id}/results/{name}  a finished job's CSV
//	POST   /v1/lease?worker=NAME         lease a work item (204 when idle)
//	POST   /v1/lease/{id}/heartbeat      keep a lease alive
//	POST   /v1/lease/{id}/ack?executed=N deliver a shard result file
//	POST   /v1/lease/{id}/fail           release a lease after a worker error
//	GET    /healthz                      liveness (no auth)
//	GET    /metrics                      Prometheus-style metrics (no auth)
package service

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
	"pracsim/internal/httpd"
	"pracsim/internal/retry"
	"pracsim/internal/sim"
)

// queueFingerprint pins the queue journal to this daemon role; the
// schema version in journal.Options orphans it across simulator bumps
// exactly as store keys move.
const queueFingerprint = "pracsimd/queue/1"

// Options configures the daemon.
type Options struct {
	// Dir is the daemon's data directory: store/ (the run store and
	// dedup oracle), queue.journal, and
	// jobs/{id}/ (acked shard files and result CSVs). Required.
	Dir string
	// Budget caps the store's disk footprint in bytes; a write past it
	// evicts least-recently-accessed entries (0 = unbounded).
	Budget int64
	// Tokens is the comma-separated bearer-token list ("" = open).
	Tokens string
	// Quota caps each token's concurrently active jobs (0 = unlimited).
	Quota int
	// LeaseTTL is the worker heartbeat budget (default 30s).
	LeaseTTL time.Duration
	// Attempts is the per-item lease budget before the job fails
	// (default 3).
	Attempts int
	// Scales overrides the -scale name table (tests inject tiny
	// budgets); nil means quick/full.
	Scales map[string]exp.Scale
	// Workers caps the finalize session's simulation concurrency
	// (0 = all cores); a fully-warm finalize executes nothing anyway.
	Workers int
	// Log, when non-nil, receives daemon progress lines.
	Log *log.Logger
	// Verbose additionally logs every request.
	Verbose bool
}

// Server is the experiment service. It implements http.Handler.
type Server struct {
	opts    Options
	store   *store.Store
	disk    *store.Disk
	journal *journal.Journal
	queue   *Queue
	tokens  *httpd.Tokens
	reqs    *httpd.Metrics
	mux     *http.ServeMux
	start   time.Time

	// finalizeSem serializes finalize sessions: they are CPU-bound only
	// when results were lost, but even warm assembly is not free.
	finalizeSem chan struct{}
}

// New opens the daemon's store and queue journal under opts.Dir and
// restores the queue. The returned summary is the resume log line.
func New(opts Options) (*Server, RestoreSummary, error) {
	if opts.Scales == nil {
		opts.Scales = defaultScales()
	}
	//praclint:allow failpoint Open-time setup runs before the service is published; live I/O boundaries fire service.* and queue.* failpoints
	if err := os.MkdirAll(filepath.Join(opts.Dir, "jobs"), 0o755); err != nil {
		return nil, RestoreSummary{}, fmt.Errorf("service: %w", err)
	}
	disk, err := store.OpenDiskWith(filepath.Join(opts.Dir, "store"), store.DiskOptions{BudgetBytes: opts.Budget})
	if err != nil {
		return nil, RestoreSummary{}, fmt.Errorf("service: %w", err)
	}
	jl, rec, err := journal.Open(filepath.Join(opts.Dir, "queue.journal"), journal.Options{
		Schema:      sim.SchemaVersion,
		Fingerprint: journal.Fingerprint(queueFingerprint),
	})
	if err != nil {
		return nil, RestoreSummary{}, fmt.Errorf("service: %w", err)
	}
	q := NewQueue(QueueOptions{
		Journal:  jl,
		LeaseTTL: opts.LeaseTTL,
		Attempts: opts.Attempts,
		Quota:    opts.Quota,
		Requeue:  retry.Policy{Base: 500 * time.Millisecond, Max: 10 * time.Second},
	})
	sum, err := q.Restore(rec, opts.Scales)
	if err != nil {
		jl.Close()
		return nil, sum, fmt.Errorf("service: %w", err)
	}
	s := &Server{
		opts:        opts,
		store:       store.NewStore(disk),
		disk:        disk,
		journal:     jl,
		queue:       q,
		tokens:      httpd.ParseTokens(opts.Tokens),
		reqs:        httpd.NewMetrics(),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		finalizeSem: make(chan struct{}, 1),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("POST /v1/jobs", s.route("submit", s.handleSubmit))
	s.mux.Handle("GET /v1/jobs", s.route("jobs", s.handleJobs))
	s.mux.Handle("GET /v1/jobs/{id}", s.route("status", s.handleStatus))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.route("cancel", s.handleCancel))
	s.mux.Handle("GET /v1/jobs/{id}/events", s.route("events", s.handleEvents))
	s.mux.Handle("GET /v1/jobs/{id}/results/{name}", s.route("results", s.handleResults))
	s.mux.Handle("POST /v1/lease", s.route("lease", s.handleLease))
	s.mux.Handle("POST /v1/lease/{id}/heartbeat", s.route("heartbeat", s.handleHeartbeat))
	s.mux.Handle("POST /v1/lease/{id}/ack", s.route("ack", s.handleAck))
	s.mux.Handle("POST /v1/lease/{id}/fail", s.route("fail", s.handleFail))
	return s, sum, nil
}

// Start launches the background machinery: the lease sweeper and any
// finalizes the restore left pending. It returns immediately; ctx
// cancellation stops the sweeper.
func (s *Server) Start(ctx context.Context) {
	go s.sweep(ctx)
	// Jobs whose work completed before the crash but whose results were
	// never assembled finalize now.
	for _, id := range s.queue.allFinalizing() {
		s.startFinalize(id)
	}
}

// sweep requeues expired leases on a TTL-paced ticker.
func (s *Server) sweep(ctx context.Context) {
	period := s.queue.opts.LeaseTTL / 4
	if period < 250*time.Millisecond {
		period = 250 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			if requeued := s.queue.Sweep(now); len(requeued) > 0 {
				s.logf("service: requeued expired lease item(s): %v", requeued)
			}
		}
	}
}

// Close drains the daemon: the queue stops granting, the journal syncs
// and closes. In-flight HTTP requests are the http.Server's to drain.
func (s *Server) Close() error {
	s.queue.Close()
	return s.journal.Close()
}

// ServeHTTP dispatches to the service routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.opts.Verbose && s.opts.Log != nil {
		s.opts.Log.Printf("%s %s from %s", r.Method, r.URL.Path, r.RemoteAddr)
	}
	s.mux.ServeHTTP(w, r)
}

// route wraps a /v1/* handler with the shared bearer-token check and
// per-endpoint request/latency accounting.
func (s *Server) route(endpoint string, h http.HandlerFunc) http.Handler {
	return s.reqs.Instrument(endpoint, s.tokens.Require(h))
}

func (s *Server) logf(format string, a ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, a...)
	}
}

// jobDir is where one job's acked shard files and results live.
func (s *Server) jobDir(id string) string {
	return filepath.Join(s.opts.Dir, "jobs", id)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) { httpd.Counter(w, name, help, v) }
	gauge := func(name, help string, v float64) { httpd.Gauge(w, name, help, v) }
	d := s.queue.Stats()
	counter("pracsimd_jobs_submitted_total", "Grid jobs accepted.", d.Submits)
	counter("pracsimd_jobs_deduped_total", "Jobs whose grid was fully warm at submission (zero work enqueued).", d.DedupJobs)
	counter("pracsimd_leases_granted_total", "Work-item leases granted.", d.Grants)
	counter("pracsimd_acks_total", "Work items completed by workers.", d.Acks)
	counter("pracsimd_lease_expiries_total", "Leases expired by missed heartbeats.", d.Expiries)
	counter("pracsimd_item_failures_total", "Work items that exhausted their attempt budget.", d.ItemFails)
	counter("pracsimd_auth_failures_total", "Requests with a missing or wrong bearer token.", s.tokens.AuthFailures())
	if n := fault.Fired(); n > 0 {
		counter("pracsimd_faults_injected_total", "Faults injected by the -faults schedule.", n)
	}
	gauge("pracsimd_queue_depth", "Work items waiting for a lease.", float64(d.Pending))
	gauge("pracsimd_leased", "Work items currently leased.", float64(d.Leased))
	gauge("pracsimd_active_jobs", "Jobs not yet in a terminal state.", float64(d.ActiveJobs))
	gauge("pracsimd_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	if entries, bytes, err := s.disk.Footprint(); err == nil {
		gauge("pracsimd_store_entries", "Entry files in the store.", float64(entries))
		gauge("pracsimd_store_bytes", "Entry file bytes in the store.", float64(bytes))
	}
	// Lifecycle metrics appear whenever a budget is set (so a scraper
	// sees the footprint move toward the limit), and whenever anything
	// was evicted even without one (injected evictions).
	if ev := s.disk.EvictionStats(); ev.Budget > 0 || ev.Evicted > 0 {
		counter("pracsimd_store_evicted_total", "Entries evicted by the store budget or injected evictions.", ev.Evicted)
		counter("pracsimd_store_evicted_bytes_total", "Entry file bytes reclaimed by eviction.", ev.EvictedBytes)
		counter("pracsimd_store_eviction_sweeps_total", "Eviction sweeps that ran.", ev.Sweeps)
		gauge("pracsimd_store_budget_bytes", "Configured store budget (0 = unbounded).", float64(ev.Budget))
	}
	s.reqs.Write(w, "pracsimd")
}

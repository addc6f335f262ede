package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/shard"
	"pracsim/internal/fault"
	"pracsim/internal/httpd"
	"pracsim/internal/sim"
)

// maxSpecBytes bounds a grid-spec body; a spec is a few hundred bytes.
const maxSpecBytes = 64 << 10

// maxShardBytes bounds an acked shard-file upload. A full-scale shard
// file is tens of MB at most.
const maxShardBytes = 256 << 20

// fireDelay applies a fired failpoint's Delay kind, bounded by the
// request's lifetime.
func fireDelay(act *fault.Action, r *http.Request) {
	if act != nil && act.Kind == fault.Delay {
		select {
		case <-time.After(act.Value):
		case <-r.Context().Done():
		}
	}
}

// writeJSON sends a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit accepts a grid spec over HTTP and hands it to Submit.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The service.submit failpoint fails the submission before anything
	// is journaled — the client retries and gets a fresh job id, exactly
	// like any pre-accept 500.
	act := fault.Fire(fault.ServiceSubmit)
	if act != nil && act.Kind == fault.Err {
		http.Error(w, act.Err("submit").Error(), http.StatusInternalServerError)
		return
	}
	fireDelay(act, r)
	spec, err := decodeGridSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, "bad grid spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	st, err := s.Submit(httpd.Token(r.Context()), spec)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrBadSpec):
			code = http.StatusBadRequest
		case errors.Is(err, ErrQuota):
			code = http.StatusTooManyRequests
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

// Submit validates a grid spec for a tenant, dedupes it against the
// store and queues the shard slices that still own cold keys. A
// fully-warm grid queues nothing and finalizes at once. Errors wrap
// ErrBadSpec, ErrQuota or ErrClosed.
func (s *Server) Submit(token string, spec GridSpec) (JobStatus, error) {
	exps, scale, err := spec.normalize(s.opts.Scales)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	scale.Workers = s.opts.Workers
	keys, err := exp.GridKeys(exps, scale)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// The dedup probe: a key whose Stat succeeds is warm; any error —
	// absent, corrupt, unreadable — degrades to cold, which only costs
	// (re-)execution. Shard slices owning no cold key enqueue nothing.
	cold := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, serr := s.disk.Stat(k); serr != nil {
			cold = append(cold, k)
		}
	}
	var items []shard.Spec
	for i := 0; i < spec.Shards; i++ {
		sp := shard.Spec{Index: i, Count: spec.Shards}
		for _, k := range cold {
			if sp.Owns(k) {
				items = append(items, sp)
				break
			}
		}
	}
	st, err := s.queue.Submit(token, spec, exps, scale, len(keys), len(keys)-len(cold), items)
	if err != nil {
		return st, err
	}
	s.logf("service: job %s submitted (%s, scale %s, %d/%d keys cold, %d item(s))",
		st.ID, strings.Join(exps, ","), spec.Scale, len(cold), len(keys), len(items))
	if st.State == StateFinalizing {
		s.startFinalize(st.ID)
	}
	return st, nil
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.List(httpd.Token(r.Context()))
	if jobs == nil {
		jobs = []JobStatus{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.queue.Status(r.PathValue("id"), httpd.Token(r.Context()))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.queue.Cancel(r.PathValue("id"), httpd.Token(r.Context()))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's status transitions as server-sent
// events: one `event: status` per transition, `event: done` with the
// final state when the job reaches a terminal one.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel, ok := s.queue.Subscribe(r.PathValue("id"), httpd.Token(r.Context()))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(event string, st JobStatus) bool {
		data, _ := json.Marshal(st)
		_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
		return err == nil
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case st, open := <-ch:
			if !open {
				// Terminal transition: the channel closed after its last
				// event; re-fetch the final state for the done marker.
				if final, ok := s.queue.Status(r.PathValue("id"), httpd.Token(r.Context())); ok {
					emit("done", final)
				}
				return
			}
			// The service.stream failpoint drops the SSE connection
			// mid-stream (err) or stalls it (delay) — the client falls
			// back to polling; job state is untouched.
			act := fault.Fire(fault.ServiceStream)
			if act != nil && act.Kind == fault.Err {
				return
			}
			fireDelay(act, r)
			if !emit("status", st) {
				return
			}
			if terminal(st.State) {
				emit("done", st)
				return
			}
		}
	}
}

// resultName validates a results path segment: an experiment CSV name,
// nothing that can traverse.
func resultName(name string) bool {
	base, ok := strings.CutSuffix(name, ".csv")
	if !ok {
		return false
	}
	for _, e := range exp.Experiments() {
		if base == e {
			return true
		}
	}
	return false
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	st, ok := s.queue.Status(id, httpd.Token(r.Context()))
	if !ok || !resultName(name) {
		http.Error(w, "no such result", http.StatusNotFound)
		return
	}
	if st.State != StateDone {
		http.Error(w, fmt.Sprintf("job is %s, results exist once it is done", st.State), http.StatusConflict)
		return
	}
	//praclint:allow failpoint serving a finalized, immutable CSV; the chaos surface is the job pipeline (service.submit, queue.lease, queue.ack, service.stream), not a static file read
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "results", name))
	if err != nil {
		http.Error(w, "no such result", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(data)
}

// handleLease grants the next work item to a pull worker; 204 when the
// queue has nothing ready.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	// The queue.lease failpoint fails or delays the grant — the worker's
	// poll loop absorbs it with retry pacing.
	act := fault.Fire(fault.QueueLease)
	if act != nil && act.Kind == fault.Err {
		http.Error(w, act.Err("lease").Error(), http.StatusInternalServerError)
		return
	}
	fireDelay(act, r)
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		worker = r.RemoteAddr
	}
	grant, ok := s.queue.Lease(worker, time.Now())
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.logf("service: job %s item %s leased to %s (%s)", grant.Job, grant.Item, worker, grant.ID)
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.queue.Heartbeat(r.PathValue("id"), time.Now()) {
		http.Error(w, ErrNoLease.Error(), http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleAck accepts a completed work item's shard result file: the file
// is validated, stored durably under the job's directory, its runs are
// imported into the daemon's store (warming the dedup oracle), and the
// item completes. The last item of a job kicks finalize.
func (s *Server) handleAck(w http.ResponseWriter, r *http.Request) {
	// The queue.ack failpoint fails the delivery — the worker retries;
	// past its budget the lease expires and the item re-leases.
	act := fault.Fire(fault.QueueAck)
	if act != nil && act.Kind == fault.Err {
		http.Error(w, act.Err("ack").Error(), http.StatusInternalServerError)
		return
	}
	fireDelay(act, r)
	leaseID := r.PathValue("id")
	executed, _ := strconv.ParseInt(r.URL.Query().Get("executed"), 10, 64)
	// Peek the lease before the expensive body work; the authoritative
	// check is the queue.Ack below.
	if !s.queue.Heartbeat(leaseID, time.Now()) {
		http.Error(w, ErrNoLease.Error(), http.StatusGone)
		return
	}
	path, runs, err := s.saveShardFile(leaseID, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	imported := s.importShardFile(path)
	out, err := s.queue.Ack(leaseID, path, runs, executed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	s.logf("service: job %s item %s acked (%d runs, %d executed, %d imported to store)",
		out.Job, out.Item, runs, executed, imported)
	if out.Ready {
		s.startFinalize(out.Job)
	}
	w.WriteHeader(http.StatusNoContent)
}

// saveShardFile persists an ack body under the lease's job directory
// (atomically: temp + rename) and validates it as a shard file of this
// simulator's schema.
func (s *Server) saveShardFile(leaseID string, r *http.Request) (path string, runs int, err error) {
	jobID, item, ok := s.queue.leaseTarget(leaseID)
	if !ok {
		return "", 0, ErrNoLease
	}
	dir := filepath.Join(s.jobDir(jobID), "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("service: %w", err)
	}
	path = filepath.Join(dir, strings.ReplaceAll(item, "/", "-of-")+".runs")
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return "", 0, fmt.Errorf("service: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename
	_, cerr := f.ReadFrom(http.MaxBytesReader(nil, r.Body, maxShardBytes))
	if cerr == nil {
		cerr = f.Close()
	} else {
		f.Close()
	}
	if cerr != nil {
		return "", 0, fmt.Errorf("service: reading shard upload: %w", cerr)
	}
	// Validate before publishing: format, schema, per-entry decode, the
	// header run count. A torn or stale upload never lands.
	runs, err = shard.Validate(tmp, sim.SchemaVersion)
	if err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", 0, fmt.Errorf("service: %w", err)
	}
	return path, runs, nil
}

// importShardFile writes a validated shard file's runs through to the
// daemon's store — the dedup oracle and the durable result layer.
// Best-effort, Stat-before-Put: a warm entry is skipped, a failed Put
// costs a future re-execution, never this ack.
func (s *Server) importShardFile(path string) int {
	entries, err := shard.ReadFile(path, sim.SchemaVersion)
	if err != nil {
		s.logf("service: re-reading %s for store import: %v", path, err)
		return 0
	}
	n := 0
	for _, e := range entries {
		if _, serr := s.disk.Stat(e.Key); serr == nil {
			continue
		}
		if s.store.Put(e.Key, e.Payload) == nil {
			n++
		}
	}
	return n
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	msg, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
	if err := s.queue.Fail(r.PathValue("id"), strings.TrimSpace(string(msg)), time.Now()); err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

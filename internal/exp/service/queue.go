package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/shard"
	"pracsim/internal/retry"
	"pracsim/internal/sim"
)

// Job states. A job moves queued → running → finalizing → done; failed
// and canceled are the other terminal states.
const (
	StateQueued     = "queued"
	StateRunning    = "running"
	StateFinalizing = "finalizing"
	StateDone       = "done"
	StateFailed     = "failed"
	StateCanceled   = "canceled"
)

// terminal reports whether a job state accepts no further transitions.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Queue errors the HTTP layer maps onto status codes.
var (
	// ErrQuota rejects a submission that would exceed the token's
	// concurrent-job quota (429).
	ErrQuota = errors.New("service: active-job quota exceeded")
	// ErrNoLease rejects an ack/heartbeat/fail for a lease this daemon
	// does not hold — expired, already acked, or voided by a restart.
	// The worker discards its attempt; the item is (or will be) re-leased.
	ErrNoLease = errors.New("service: unknown or expired lease")
	// ErrClosed rejects operations on a draining queue.
	ErrClosed = errors.New("service: queue is draining")
	// ErrBadSpec rejects a grid spec that fails validation (400).
	ErrBadSpec = errors.New("service: bad grid spec")
)

// JobStatus is the wire form of a job's state — what GET /v1/jobs/{id}
// returns and what every SSE event carries.
type JobStatus struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Priority int      `json:"priority"`
	Exps     []string `json:"exps"`
	Scale    string   `json:"scale"`
	// Items counts this job's shard work items; a fully-warm grid has
	// zero and goes straight to finalizing.
	Items   int `json:"items"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Acked   int `json:"acked"`
	// TotalKeys is the grid's distinct run-key count; WarmKeys of those
	// were already in the store at submission.
	TotalKeys int `json:"total_keys"`
	WarmKeys  int `json:"warm_keys"`
	// Executed sums the simulations workers actually ran for this job
	// (store hits excluded); FinalizeExecuted counts runs the finalize
	// session had to execute itself (0 unless results were lost).
	Executed         int64    `json:"executed"`
	FinalizeExecuted int64    `json:"finalize_executed"`
	Results          []string `json:"results,omitempty"`
	Error            string   `json:"error,omitempty"`
}

// LeaseGrant is the wire form of a leased work item: everything a pull
// worker needs to execute its shard slice of the grid and nothing more.
// Scale budgets travel resolved (not by name) so workers never need the
// daemon's scale table.
type LeaseGrant struct {
	ID        string   `json:"id"`
	Job       string   `json:"job"`
	Item      string   `json:"item"` // shard "i/n"
	Exps      []string `json:"exps"`
	Warmup    int64    `json:"warmup"`
	Measured  int64    `json:"measured"`
	Workloads []string `json:"workloads"`
	// TTLSecs is the lease's heartbeat budget: miss it and the item is
	// re-leased to someone else.
	TTLSecs int `json:"ttl_secs"`
}

// item states.
const (
	itemPending = iota
	itemLeased
	itemAcked
)

// workItem is one shard slice of a job's grid.
type workItem struct {
	shard     shard.Spec
	state     int
	attempts  int       // lease grants in this process's lifetime
	notBefore time.Time // requeue pacing after an expiry or failure
	file      string    // acked shard result file
}

// job is the queue's record of one submitted grid.
type job struct {
	id       string
	token    string
	priority int
	spec     GridSpec
	exps     []string
	scale    exp.Scale
	state    string
	items    []*workItem

	totalKeys, warmKeys int
	executed            int64 // worker-reported new simulations
	finalizeExec        int64
	errMsg              string
	results             []string
	finalizeStarted     bool

	subs map[chan JobStatus]struct{}
}

// lease is one outstanding grant.
type lease struct {
	id      string
	job     *job
	item    int
	worker  string
	expires time.Time
}

// QueueOptions configures the job queue.
type QueueOptions struct {
	// Dir is the job directory, the queue's only persistent record
	// (see Restore); required.
	Dir string
	// LeaseTTL is how long a worker may go without a heartbeat before
	// its item is re-leased (default 30s).
	LeaseTTL time.Duration
	// Attempts is the per-item lease budget; an item granted this many
	// times without an ack fails its job (default 3).
	Attempts int
	// Quota caps a token's concurrently active jobs (0 = unlimited).
	Quota int
	// Requeue paces re-leasing after an expiry or failure, so a
	// crash-looping worker does not hot-spin one item.
	Requeue retry.Policy
}

// Queue is the job/work-item state machine over a job directory. All
// methods are safe for concurrent use; file writes and event delivery
// happen outside the state lock.
type Queue struct {
	opts QueueOptions

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order
	leases  map[string]*lease
	jobSeq  int            // persistent: restored from job directory names
	leaseSe int            // process-local: restarts void leases
	rr      map[int]string // per-priority round-robin cursor (last token served)
	closed  bool

	// counters for /metrics, guarded by mu
	submits, dedupJobs, grants, acks, expiries, itemFails int64
}

// NewQueue builds an empty queue; Restore reads the job directory in.
func NewQueue(opts QueueOptions) *Queue {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	if opts.Requeue.Base <= 0 {
		opts.Requeue = retry.Policy{Base: 500 * time.Millisecond, Max: 10 * time.Second}
	}
	return &Queue{
		opts:   opts,
		jobs:   make(map[string]*job),
		leases: make(map[string]*lease),
		rr:     make(map[int]string),
	}
}

// statusLocked snapshots a job for the wire.
func statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Priority: j.priority,
		Exps: j.exps, Scale: j.spec.Scale,
		Items: len(j.items), TotalKeys: j.totalKeys, WarmKeys: j.warmKeys,
		Executed: j.executed, FinalizeExecuted: j.finalizeExec,
		Results: j.results, Error: j.errMsg,
	}
	for _, it := range j.items {
		switch it.state {
		case itemPending:
			st.Pending++
		case itemLeased:
			st.Leased++
		case itemAcked:
			st.Acked++
		}
	}
	return st
}

// publishLocked delivers a job's current status to its subscribers
// (non-blocking: a slow SSE consumer drops intermediate events, never
// stalls the queue) and, on a terminal transition, closes them — the
// stream's end-of-job marker.
func publishLocked(j *job) {
	st := statusLocked(j)
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
	if terminal(j.state) {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// activeLocked counts a token's non-terminal jobs.
func (q *Queue) activeLocked(token string) int {
	n := 0
	for _, j := range q.order {
		if j.token == token && !terminal(j.state) {
			n++
		}
	}
	return n
}

// Submit registers a validated, store-deduped job: items lists the
// shard slices that still own cold keys (empty for a fully-warm grid,
// which goes straight to finalizing). The returned status's State tells
// the caller whether to kick finalize.
func (q *Queue) Submit(token string, spec GridSpec, exps []string, scale exp.Scale, totalKeys, warmKeys int, items []shard.Spec) (JobStatus, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	if q.opts.Quota > 0 && q.activeLocked(token) >= q.opts.Quota {
		q.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w (%d active)", ErrQuota, q.opts.Quota)
	}
	q.jobSeq++
	q.submits++
	j := &job{
		id:        fmt.Sprintf("j%d", q.jobSeq),
		token:     token,
		priority:  spec.Priority,
		spec:      spec,
		exps:      exps,
		scale:     scale,
		state:     StateQueued,
		totalKeys: totalKeys,
		warmKeys:  warmKeys,
		subs:      make(map[chan JobStatus]struct{}),
	}
	for _, sp := range items {
		j.items = append(j.items, &workItem{shard: sp})
	}
	if len(j.items) == 0 {
		// Every key is warm: no work to hand out, just assembly. The
		// caller sees StateFinalizing and kicks finalize exactly once.
		j.state = StateFinalizing
		j.finalizeStarted = true
		q.dedupJobs++
	}
	q.jobs[j.id] = j
	q.order = append(q.order, j)
	st := statusLocked(j)
	q.mu.Unlock()

	// spec.json is what makes the id durable: it is synced before
	// Submit's caller can hand the id to the client, and it carries the
	// deduped item list, so a restore queues exactly this.
	rec := jobRecord{
		Schema: sim.SchemaVersion, Token: token, Spec: spec,
		Warmup: scale.Warmup, Measured: scale.Measured, Workloads: scale.Workloads,
		Items: make([]string, len(items)), Keys: totalKeys, Warm: warmKeys,
	}
	for i, sp := range items {
		rec.Items[i] = sp.String()
	}
	if err := writeSpec(q.jobDir(j.id), rec); err != nil {
		q.mu.Lock()
		j.state, j.errMsg = StateFailed, "recording the job: "+err.Error()
		publishLocked(j)
		q.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: recording job %s: %w", j.id, err)
	}
	return st, nil
}

// readyLocked reports whether an item can be granted now.
func readyLocked(j *job, it *workItem, now time.Time) bool {
	return !terminal(j.state) && j.state != StateFinalizing &&
		it.state == itemPending && !now.Before(it.notBefore)
}

// Lease grants the next work item to a worker, or reports none ready.
// Selection is by priority level first; within a level, tokens take
// round-robin turns (one tenant's burst of low-priority grids cannot
// starve another's), and within a token, jobs go FIFO.
func (q *Queue) Lease(worker string, now time.Time) (*LeaseGrant, bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, false
	}
	var grant *LeaseGrant
	for prio := PriorityHigh; prio <= PriorityLow && grant == nil; prio++ {
		// Distinct tokens with a ready item at this priority, sorted for
		// a stable round-robin orbit.
		var tokens []string
		seen := map[string]bool{}
		for _, j := range q.order {
			if j.priority != prio || seen[j.token] {
				continue
			}
			for _, it := range j.items {
				if readyLocked(j, it, now) {
					tokens = append(tokens, j.token)
					seen[j.token] = true
					break
				}
			}
		}
		if len(tokens) == 0 {
			continue
		}
		sort.Strings(tokens)
		start := 0
		if last, ok := q.rr[prio]; ok {
			// The first token strictly after the last one served, wrapping.
			start = sort.SearchStrings(tokens, last)
			if start < len(tokens) && tokens[start] == last {
				start++
			}
			start %= len(tokens)
		}
		tok := tokens[start]
		q.rr[prio] = tok
		for _, j := range q.order { // FIFO within the token
			if j.token != tok || j.priority != prio {
				continue
			}
			for i, it := range j.items {
				if !readyLocked(j, it, now) {
					continue
				}
				it.state = itemLeased
				it.attempts++
				if j.state == StateQueued {
					j.state = StateRunning
				}
				q.leaseSe++
				l := &lease{
					id: fmt.Sprintf("l%d", q.leaseSe), job: j, item: i,
					worker: worker, expires: now.Add(q.opts.LeaseTTL),
				}
				q.leases[l.id] = l
				q.grants++
				grant = &LeaseGrant{
					ID: l.id, Job: j.id, Item: it.shard.String(),
					Exps: j.exps, Warmup: j.scale.Warmup, Measured: j.scale.Measured,
					Workloads: j.scale.Workloads,
					TTLSecs:   int(q.opts.LeaseTTL / time.Second),
				}
				publishLocked(j)
				break
			}
			if grant != nil {
				break
			}
		}
	}
	q.mu.Unlock()
	return grant, grant != nil
}

// Heartbeat extends a lease.
func (q *Queue) Heartbeat(leaseID string, now time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[leaseID]
	if !ok {
		return false
	}
	l.expires = now.Add(q.opts.LeaseTTL)
	return true
}

// AckOutcome reports what an ack did.
type AckOutcome struct {
	Job  string
	Item string
	// Ready means this was the job's last outstanding item: the caller
	// must kick finalize exactly once.
	Ready bool
}

// Ack completes a leased item with its validated shard result file,
// renaming it into the job directory: that rename is the durable ack,
// and the file's name records the simulations the worker executed.
// Idempotent per item: a duplicate ack (a straggler's late retry after
// re-lease) is absorbed without double-counting.
func (q *Queue) Ack(leaseID, tmp string, executed int64) (AckOutcome, error) {
	q.mu.Lock()
	l, ok := q.leases[leaseID]
	if !ok {
		q.mu.Unlock()
		return AckOutcome{}, ErrNoLease
	}
	// The lease is consumed here, so no other ack of this item can run
	// until the rename below has landed or the item is pending again.
	delete(q.leases, leaseID)
	j := l.job
	it := j.items[l.item]
	out := AckOutcome{Job: j.id, Item: it.shard.String()}
	if terminal(j.state) || it.state == itemAcked {
		q.mu.Unlock()
		return out, nil
	}
	file := filepath.Join(q.jobDir(j.id), shardsDir, ackName(it.shard, executed))
	q.mu.Unlock()

	err := os.Rename(tmp, file)

	q.mu.Lock()
	defer q.mu.Unlock()
	if terminal(j.state) {
		return out, nil
	}
	if err != nil {
		it.state = itemPending
		publishLocked(j)
		return out, fmt.Errorf("service: recording ack: %w", err)
	}
	it.state = itemAcked
	it.file = file
	j.executed += executed
	q.acks++
	allAcked := true
	for _, o := range j.items {
		if o.state != itemAcked {
			allAcked = false
			break
		}
	}
	if allAcked {
		j.state = StateFinalizing
		if !j.finalizeStarted {
			j.finalizeStarted = true
			out.Ready = true
		}
	}
	publishLocked(j)
	return out, nil
}

// requeueLocked returns a leased item to the pending pool with backoff
// pacing, failing the whole job when the item's attempt budget is
// exhausted. It returns the failed job's state, for the caller to record
// once the lock is released.
func (q *Queue) requeueLocked(l *lease, now time.Time, cause string) *jobState {
	j := l.job
	it := j.items[l.item]
	delete(q.leases, l.id)
	if terminal(j.state) || it.state != itemLeased {
		return nil
	}
	if it.attempts >= q.opts.Attempts {
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("item %s: %s after %d attempts", it.shard, cause, it.attempts)
		q.itemFails++
		publishLocked(j)
		return &jobState{State: StateFailed, Error: j.errMsg}
	}
	it.state = itemPending
	it.notBefore = now.Add(q.opts.Requeue.Delay(j.id+"/"+it.shard.String(), it.attempts))
	publishLocked(j)
	return nil
}

// Fail releases a lease a worker could not complete; the item requeues
// (or fails its job past the attempt budget).
func (q *Queue) Fail(leaseID, msg string, now time.Time) error {
	q.mu.Lock()
	l, ok := q.leases[leaseID]
	if !ok {
		q.mu.Unlock()
		return ErrNoLease
	}
	failed := q.requeueLocked(l, now, "worker failure: "+msg)
	q.mu.Unlock()
	if failed != nil {
		q.recordState(l.job.id, *failed)
	}
	return nil
}

// Sweep requeues every expired lease; the server's ticker calls it.
// It reports the items it requeued, for the daemon log.
func (q *Queue) Sweep(now time.Time) []string {
	q.mu.Lock()
	var expired []*lease
	for _, l := range q.leases {
		if now.After(l.expires) {
			expired = append(expired, l)
		}
	}
	var requeued []string
	failed := map[string]jobState{}
	for _, l := range expired {
		q.expiries++
		requeued = append(requeued, l.job.id+"/"+l.job.items[l.item].shard.String())
		if st := q.requeueLocked(l, now, "lease expired"); st != nil {
			failed[l.job.id] = *st
		}
	}
	q.mu.Unlock()
	sort.Strings(requeued)
	for id, st := range failed {
		q.recordState(id, st)
	}
	return requeued
}

// FinalizeDone records a finalize outcome as the job's terminal state.
func (q *Queue) FinalizeDone(id string, executed int64, results []string, ferr error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || terminal(j.state) {
		q.mu.Unlock()
		return
	}
	j.finalizeExec = executed
	if ferr != nil {
		j.state = StateFailed
		j.errMsg = "finalize: " + ferr.Error()
	} else {
		j.state = StateDone
		j.results = results
	}
	msg := j.errMsg
	publishLocked(j)
	q.mu.Unlock()
	if ferr != nil { // a done job's record is its results directory
		q.recordState(id, jobState{State: StateFailed, Error: msg})
	}
}

// recordState writes a failed or canceled job's state file. Unsynced
// and best-effort: a lost one costs a resumed job after a restart, never
// a wrong result.
func (q *Queue) recordState(id string, st jobState) {
	data, _ := json.Marshal(st)
	_ = os.WriteFile(filepath.Join(q.jobDir(id), stateFile), data, 0o644)
}

// Cancel terminates a job; its outstanding leases are voided (late acks
// are absorbed as no-ops). Only the submitting token may cancel.
func (q *Queue) Cancel(id, token string) (JobStatus, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.token != token {
		q.mu.Unlock()
		return JobStatus{}, false
	}
	if terminal(j.state) {
		st := statusLocked(j)
		q.mu.Unlock()
		return st, true
	}
	j.state = StateCanceled
	for lid, l := range q.leases {
		if l.job == j {
			delete(q.leases, lid)
		}
	}
	publishLocked(j)
	st := statusLocked(j)
	q.mu.Unlock()
	q.recordState(id, jobState{State: StateCanceled})
	return st, true
}

// Status returns a job visible to the token.
func (q *Queue) Status(id, token string) (JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.token != token {
		return JobStatus{}, false
	}
	return statusLocked(j), true
}

// List returns the token's jobs in submission order.
func (q *Queue) List(token string) []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []JobStatus
	for _, j := range q.order {
		if j.token == token {
			out = append(out, statusLocked(j))
		}
	}
	return out
}

// Subscribe attaches an event stream to a job: the current status
// arrives first, every transition after, and the channel closes on the
// terminal one. The cancel func detaches an abandoned stream.
func (q *Queue) Subscribe(id, token string) (<-chan JobStatus, func(), bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.token != token {
		return nil, nil, false
	}
	ch := make(chan JobStatus, 16)
	ch <- statusLocked(j)
	if terminal(j.state) {
		close(ch)
		return ch, func() {}, true
	}
	j.subs[ch] = struct{}{}
	cancel := func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		delete(j.subs, ch)
	}
	return ch, cancel, true
}

// ackedFiles lists a job's acked shard result files, in item order.
func (q *Queue) ackedFiles(id string) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil
	}
	var files []string
	for _, it := range j.items {
		if it.state == itemAcked && it.file != "" {
			files = append(files, it.file)
		}
	}
	return files
}

// leaseJob names the job a live lease covers.
func (q *Queue) leaseJob(leaseID string) (jobID string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, found := q.leases[leaseID]
	if !found {
		return "", false
	}
	return l.job.id, true
}

// allFinalizing lists jobs in the finalizing state — what a restarted
// server must assemble on start.
func (q *Queue) allFinalizing() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var ids []string
	for _, j := range q.order {
		if j.state == StateFinalizing {
			ids = append(ids, j.id)
		}
	}
	return ids
}

// jobForFinalize returns what finalize needs without exposing the job.
func (q *Queue) jobForFinalize(id string) (exps []string, scale exp.Scale, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, found := q.jobs[id]
	if !found {
		return nil, exp.Scale{}, false
	}
	return j.exps, j.scale, true
}

// Depth snapshots the queue gauges for /metrics.
type Depth struct {
	Pending, Leased, ActiveJobs                           int
	Submits, DedupJobs, Grants, Acks, Expiries, ItemFails int64
}

// Stats snapshots queue depth and traffic.
func (q *Queue) Stats() Depth {
	q.mu.Lock()
	defer q.mu.Unlock()
	d := Depth{
		Leased:  len(q.leases),
		Submits: q.submits, DedupJobs: q.dedupJobs, Grants: q.grants,
		Acks: q.acks, Expiries: q.expiries, ItemFails: q.itemFails,
	}
	for _, j := range q.order {
		if terminal(j.state) {
			continue
		}
		d.ActiveJobs++
		for _, it := range j.items {
			if it.state == itemPending {
				d.Pending++
			}
		}
	}
	return d
}

// Close drains the queue: no new submissions or grants; outstanding
// state is already in the job directory.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// RestoreSummary reports what a queue adopted from its job directory.
type RestoreSummary struct {
	// Jobs counts adopted jobs (terminal ones included).
	Jobs int
	// Terminal of those were already done/failed/canceled.
	Terminal int
	// ItemsAcked counts completed work items adopted — exactly the work
	// a restart does not redo.
	ItemsAcked int
	// ItemsRequeued counts items that were pending or leased at the
	// crash; leases are voided, the items re-lease from scratch.
	ItemsRequeued int
	// Finalizing lists jobs whose work is complete but whose results
	// were never assembled — the server kicks their finalize on start.
	Finalizing []string
}

// String renders the restore summary as the daemon's one-line resume log.
func (s RestoreSummary) String() string {
	return fmt.Sprintf("queue resumed: %d job(s) (%d terminal), %d item(s) acked adopted, %d item(s) requeued, %d finalize(s) pending",
		s.Jobs, s.Terminal, s.ItemsAcked, s.ItemsRequeued, len(s.Finalizing))
}

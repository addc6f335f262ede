package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"pracsim/internal/exp"
	"pracsim/internal/exp/shard"
	"pracsim/internal/sim"
)

// A job's directory under the queue's Dir is its only persistent record:
// spec.json (the submission), shards/ (one file per acked item, see
// ackName), one <experiment>.csv per result once the job is done, and
// state (a failed or canceled job's jobState).
const (
	specFile  = "spec.json"
	stateFile = "state"
	shardsDir = "shards"
)

// jobRecord is a job's spec.json: what a restart needs to queue the job
// again exactly as it was submitted.
type jobRecord struct {
	Schema int      `json:"schema"`
	Token  string   `json:"token"`
	Spec   GridSpec `json:"spec"`
	// The scale the spec resolved to at submission; a daemon whose scale
	// table resolves it differently fails the job on restore.
	Warmup    int64    `json:"warmup"`
	Measured  int64    `json:"measured"`
	Workloads []string `json:"workloads"`
	// Items lists the work items ("i/n") the store-dedup left cold. The
	// dedup is not repeated on restore: the store has moved on since.
	Items []string `json:"items"`
	Keys  int      `json:"keys"` // distinct run keys in the grid
	Warm  int      `json:"warm"` // of those, warm at submission
}

// jobState is a failed or canceled job's state file.
type jobState struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// decodeStrict reads exactly one JSON value into v, with no unknown
// fields and nothing but whitespace after it.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// ackName is an acked item's file name under shards/. Its rename into
// place is the ack, so the simulations the worker executed for the item
// travel in the name rather than in a second record.
func ackName(sp shard.Spec, executed int64) string {
	return fmt.Sprintf("%d-of-%d.e%d.runs", sp.Index, sp.Count, executed)
}

// parseAckName inverts ackName; any other name is an upload that was
// never acked.
func parseAckName(name string) (sp shard.Spec, executed int64, ok bool) {
	if _, err := fmt.Sscanf(name, "%d-of-%d.e%d.runs", &sp.Index, &sp.Count, &executed); err != nil {
		return shard.Spec{}, 0, false
	}
	return sp, executed, name == ackName(sp, executed)
}

// writeSpec publishes a job's spec.json by temp file, fsync and rename,
// so a crash leaves either a complete spec.json or none (the id never
// reached a client; a torn spec.json.tmp is ignored).
func writeSpec(dir string, r jobRecord) error {
	data, _ := json.Marshal(r)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, specFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, specFile))
}

// Restore rebuilds the queue from its job directory. A job comes back
// with exactly the work items it was submitted with; a valid shard file
// marks its item acked, and a torn or invalid one is removed so the item
// re-leases. A job whose spec.json is unreadable, or names another
// simulator schema or a scale this daemon resolves differently, fails
// alone with a log line. Leases are not recorded: unacked items simply
// re-lease, and attempt counts start over.
func (q *Queue) Restore(scales map[string]exp.Scale, logf func(string, ...any)) (RestoreSummary, error) {
	var sum RestoreSummary
	//praclint:allow failpoint restore runs before the queue is published; its recovery paths are tested by planting real torn files, not by injection
	ents, err := os.ReadDir(q.opts.Dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return sum, fmt.Errorf("service: %w", err)
	}
	var ns []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "j%d", &n); err == nil && e.Name() == fmt.Sprintf("j%d", n) {
			ns = append(ns, n)
		}
	}
	slices.Sort(ns)
	var loaded []*job
	for _, n := range ns {
		if j := q.loadJob(fmt.Sprintf("j%d", n), scales, logf); j != nil {
			loaded = append(loaded, j)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(ns) > 0 {
		// Every job directory advances the counter, spec or not: ids
		// never reuse.
		q.jobSeq = max(q.jobSeq, ns[len(ns)-1])
	}
	for _, j := range loaded {
		q.jobs[j.id] = j
		q.order = append(q.order, j)
		sum.Jobs++
		if terminal(j.state) {
			sum.Terminal++
			continue
		}
		acked := 0
		for _, it := range j.items {
			if it.state == itemAcked {
				acked++
			} else {
				sum.ItemsRequeued++
			}
		}
		sum.ItemsAcked += acked
		switch {
		case acked == len(j.items):
			// Work complete, results never assembled: finalize on start.
			j.state = StateFinalizing
			j.finalizeStarted = true
			sum.Finalizing = append(sum.Finalizing, j.id)
		case acked > 0:
			j.state = StateRunning
		}
	}
	return sum, nil
}

// loadJob reads one job directory; nil means it holds no job (no
// spec.json: the submission never completed).
func (q *Queue) loadJob(id string, scales map[string]exp.Scale, logf func(string, ...any)) *job {
	dir := q.jobDir(id)
	//praclint:allow failpoint pre-publish restore; see Restore
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	j := &job{id: id, state: StateQueued, subs: make(map[chan JobStatus]struct{})}
	fail := func(err error) *job {
		j.state, j.errMsg = StateFailed, "restore: "+err.Error()
		logf("service: job %s failed on restore: %v", id, err)
		return j
	}
	var rec jobRecord
	if err == nil {
		err = decodeStrict(bytes.NewReader(data), &rec)
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", specFile, err))
	}
	j.token, j.spec, j.priority = rec.Token, rec.Spec, rec.Spec.Priority
	j.totalKeys, j.warmKeys = rec.Keys, rec.Warm
	if rec.Schema != sim.SchemaVersion {
		return fail(fmt.Errorf("submitted under schema %d, this simulator is schema %d", rec.Schema, sim.SchemaVersion))
	}
	if j.exps, j.scale, err = j.spec.normalize(scales); err != nil {
		return fail(err)
	}
	if j.scale.Warmup != rec.Warmup || j.scale.Measured != rec.Measured || !slices.Equal(j.scale.Workloads, rec.Workloads) {
		return fail(fmt.Errorf("scale %q resolves differently than at submission", j.spec.Scale))
	}
	for _, name := range rec.Items {
		sp, err := shard.Parse(name)
		if err != nil {
			return fail(err)
		}
		j.items = append(j.items, &workItem{shard: sp})
	}
	// A state file lost or torn in a crash reads as absent: the job
	// resumes.
	var st jobState
	//praclint:allow failpoint pre-publish restore; see Restore
	if data, err := os.ReadFile(filepath.Join(dir, stateFile)); err == nil && decodeStrict(bytes.NewReader(data), &st) == nil && terminal(st.State) {
		j.state, j.errMsg = st.State, st.Error
	}
	// finalizeJob lands each CSV by rename: the full set means done.
	var results []string
	for _, name := range j.exps {
		//praclint:allow failpoint pre-publish restore; see Restore
		if _, err := os.Stat(filepath.Join(dir, name+".csv")); err == nil {
			results = append(results, name+".csv")
		}
	}
	if !terminal(j.state) && len(results) == len(j.exps) {
		j.state, j.results = StateDone, results
	}
	//praclint:allow failpoint pre-publish restore; see Restore
	files, _ := os.ReadDir(filepath.Join(dir, shardsDir))
	for _, f := range files {
		path := filepath.Join(dir, shardsDir, f.Name())
		sp, executed, ok := parseAckName(f.Name())
		if !ok {
			// An upload a crash caught before its ack renamed it.
			//praclint:allow failpoint pre-publish restore; see Restore
			os.Remove(path)
			continue
		}
		i := slices.IndexFunc(j.items, func(it *workItem) bool { return it.shard == sp })
		if i < 0 || j.items[i].state == itemAcked {
			continue
		}
		if !terminal(j.state) {
			if _, err := shard.Validate(path, sim.SchemaVersion); err != nil {
				logf("service: job %s item %s: discarding %v", id, sp, err)
				//praclint:allow failpoint pre-publish restore; see Restore
				os.Remove(path)
				continue
			}
		}
		j.items[i].state, j.items[i].file = itemAcked, path
		j.executed += executed
	}
	return j
}

// jobDir is where one job's record, acked shard files and results live.
func (q *Queue) jobDir(id string) string {
	return filepath.Join(q.opts.Dir, id)
}

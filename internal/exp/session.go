package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"pracsim/internal/exp/shard"
	"pracsim/internal/exp/store"
	"pracsim/internal/sim"
)

// SessionOptions attaches the cross-process scaling layers to a Runner
// session: a persistent run store (warm results survive across
// invocations and machines) and a shard spec (this process executes only
// its deterministic slice of the run keys). The zero value is a plain
// in-process session.
//
// The store is also the session's crash-resume layer: every executed
// run is put under its content-addressed key as soon as it finishes, so
// an interrupted invocation re-run over the same store executes only
// the runs it had not stored.
type SessionOptions struct {
	// Store, when non-nil, is consulted before executing any simulation
	// and receives every executed result; it layers under the in-process
	// single-flight cache.
	Store *store.Store
	// Shard restricts execution to the runs this shard owns. Runs owned
	// by other shards report ErrShardSkipped into their grid cells
	// (which stay zero) instead of executing; figures from a sharded
	// session are partial by design and are assembled by a later merge.
	Shard shard.Spec
}

// ErrShardSkipped marks a simulation that belongs to another shard of a
// partitioned grid. Grid jobs treat it as "cell not mine", never as a
// failure.
var ErrShardSkipped = errors.New("exp: run owned by another shard")

// ignoreSkip drops the shard-skip marker so a partitioned grid keeps
// going; real failures still abort the grid.
func ignoreSkip(err error) error {
	if errors.Is(err, ErrShardSkipped) {
		return nil
	}
	return err
}

// realError returns the first error that is a genuine failure rather
// than a shard skip, or nil.
func realError(errs ...error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrShardSkipped) {
			return err
		}
	}
	return nil
}

// storeKey is the versioned, content-addressable identity of one
// simulation: the simulator schema version, the scale's instruction
// budgets, the canonicalized variant fingerprint and the workload. Two
// invocations (or machines) build the same key exactly when the
// simulation is guaranteed to produce the same RunResult, so the key is
// safe to share through a persistent store. Scheduling knobs (Workers,
// Serial) and clocking knobs (PerCycle, Differential) are deliberately
// absent: they never change results, only how they are computed.
func storeKey(scale Scale, k runKey) string {
	v := k.v
	return fmt.Sprintf(
		"pracsim/run/v%d/warmup=%d/measured=%d/policy=%d/nrh=%d/prac=%d/trefevery=%d/skipontref=%t/noreset=%t/workload=%s",
		sim.SchemaVersion, scale.Warmup, scale.Measured,
		int(v.Policy), v.NRH, v.PRACLevel, v.TREFEvery, v.SkipOnTREF, v.NoReset,
		k.workload)
}

// NewRunnerWith returns a session with a persistent store and/or shard
// spec attached.
func NewRunnerWith(scale Scale, opts SessionOptions) *Runner {
	return &Runner{r: newRunnerWith(scale, opts)}
}

// Executed reports how many simulations this session actually ran —
// store hits and imported shard results are excluded, so a fully warm
// session reports zero.
func (s *Runner) Executed() int64 { return s.r.executed.Load() }

// StoreStats snapshots the persistent store's traffic counters; the zero
// Stats when the session has no store.
func (s *Runner) StoreStats() store.Stats {
	if s.r.store == nil {
		return store.Stats{}
	}
	return s.r.store.Stats()
}

// ExportShard writes every owned run this session resolved — executed,
// or served by a warm store or seed — to a shard result file (sorted by
// run key, so the file is deterministic), reporting how many runs it
// holds. It is the emit half of the multi-machine workflow; ImportShards
// is the merge half.
func (s *Runner) ExportShard(path string) (int, error) {
	s.r.mu.Lock()
	entries := make([]shard.Entry, len(s.r.ran))
	copy(entries, s.r.ran)
	s.r.mu.Unlock()
	return len(entries), shard.WriteFile(path, sim.SchemaVersion, s.r.shardSpec, entries)
}

// ImportShards merges shard result files into the session: their runs
// are served from memory instead of executing, and — when the session
// has a store — written through to it (best-effort, like every store
// write), so a merge also warms the persistent cache. It returns the
// number of imported runs.
//
// Every imported key must match this session's schema version and scale
// budgets: a shard produced at a different -scale would never match any
// of this grid's keys, and the session would silently re-simulate
// everything while reporting a successful merge. That mismatch is an
// error here, not a slow surprise later.
func (s *Runner) ImportShards(paths ...string) (int, error) {
	prefix := fmt.Sprintf("pracsim/run/v%d/warmup=%d/measured=%d/",
		sim.SchemaVersion, s.r.scale.Warmup, s.r.scale.Measured)
	total := 0
	for _, path := range paths {
		if path == "" {
			// An empty path must fail as what it is, not as a
			// confusing open("") error.
			return total, errors.New("exp: empty shard file path")
		}
		entries, err := shard.ReadFile(path, sim.SchemaVersion)
		if err != nil {
			return total, err
		}
		for _, e := range entries {
			if !strings.HasPrefix(e.Key, prefix) {
				return total, fmt.Errorf(
					"exp: %s holds run %q, which this session (scale warmup=%d measured=%d) would never request — was the shard built at a different -scale?",
					path, e.Key, s.r.scale.Warmup, s.r.scale.Measured)
			}
		}
		s.r.mu.Lock()
		if s.r.seed == nil {
			s.r.seed = make(map[string][]byte, len(entries))
		}
		for _, e := range entries {
			s.r.seed[e.Key] = e.Payload
		}
		s.r.mu.Unlock()
		if s.r.store != nil {
			for _, e := range entries {
				// Stat-before-Put: a dispatched fleet's children wrote
				// these runs into this very store, so rewriting them
				// would copy the whole grid file by file. A header-only
				// existence probe keeps the fully-warm merge off the
				// write path; anything absent or implausible still
				// writes through.
				if _, serr := s.r.store.Disk().Stat(e.Key); serr == nil {
					continue
				}
				_ = s.r.store.Put(e.Key, e.Payload)
			}
		}
		total += len(entries)
	}
	return total, nil
}

// Memo memoizes a whole experiment result in a persistent store: the
// attack sweeps (pracleak) and the analysis solves (secanalysis) produce
// one plain-data result struct per (experiment, parameters) pair, so the
// entire result is content-addressed instead of its individual
// simulations. A nil store runs fn directly.
//
// The strict decode catches only one drift direction: an entry with
// fields T no longer has fails (DisallowUnknownFields); an entry
// *missing* a field added to T later decodes with that field
// zero-valued. Any change to a memoized result's shape or meaning must
// therefore bump sim.SchemaVersion — that moves the key and orphans
// every old entry, which is the store's only reliable invalidation.
func Memo[T any](st *store.Store, key string, fn func() (T, error)) (T, error) {
	if st == nil {
		return fn()
	}
	full := fmt.Sprintf("pracsim/exp/v%d/%s", sim.SchemaVersion, key)
	if data, ok := st.Get(full); ok {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var res T
		if dec.Decode(&res) == nil {
			return res, nil
		}
	}
	res, err := fn()
	if err != nil {
		return res, err
	}
	// Persisting is best-effort: a full disk costs future time, not
	// current correctness.
	if data, merr := json.Marshal(res); merr == nil {
		_ = st.Put(full, data)
	}
	return res, nil
}

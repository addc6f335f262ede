package service

import (
	"os"
	"path/filepath"

	"pracsim/internal/exp"
)

// startFinalize launches a job's finalize exactly once (the queue's
// finalizeStarted latch gates callers); the semaphore serializes
// finalize sessions so concurrent job completions do not contend for
// cores.
func (s *Server) startFinalize(id string) {
	go func() {
		s.finalizeSem <- struct{}{}
		defer func() { <-s.finalizeSem }()
		s.finalizeJob(id)
	}()
}

// finalizeJob assembles a completed job's results: the acked shard
// files merge into a session over the daemon's store (write-through, so
// the store ends fully warm), each selected experiment renders from the
// warm caches, and the CSVs land under the job directory. With every
// key warm the session executes nothing; FinalizeExecuted reports the
// repair work if results were lost (a wiped store plus missing shard
// files) — correctness never depends on the fast path. Each CSV lands
// in the job directory by rename, so a job is done on restore exactly
// when all of its CSVs exist.
func (s *Server) finalizeJob(id string) {
	exps, scale, ok := s.queue.jobForFinalize(id)
	if !ok {
		return
	}
	scale.Workers = s.opts.Workers // restored jobs too
	sess := exp.NewRunnerWith(scale, exp.SessionOptions{Store: s.store})
	for _, file := range s.queue.ackedFiles(id) {
		// Each file merges independently and best-effort: a missing or
		// corrupt shard file only matters if the store also lost those
		// runs, in which case the session re-executes them below.
		if _, err := os.Stat(file); err != nil {
			s.logf("service: job %s: acked shard file %s missing, relying on store: %v", id, file, err)
			continue
		}
		if _, err := sess.ImportShards(file); err != nil {
			s.logf("service: job %s: merging %s: %v (relying on store)", id, file, err)
		}
	}
	var results []string
	for _, name := range exps {
		rep, err := sess.Run(name)
		if err != nil {
			s.queue.FinalizeDone(id, sess.Executed(), nil, err)
			return
		}
		csv := filepath.Join(s.queue.jobDir(id), name+".csv")
		err = os.WriteFile(csv+".tmp", []byte(rep.CSV()), 0o644)
		if err == nil {
			err = os.Rename(csv+".tmp", csv)
		}
		if err != nil {
			s.queue.FinalizeDone(id, sess.Executed(), nil, err)
			return
		}
		results = append(results, name+".csv")
	}
	s.logf("service: job %s done (%d result(s), %d finalize execution(s))", id, len(results), sess.Executed())
	s.queue.FinalizeDone(id, sess.Executed(), results, nil)
}

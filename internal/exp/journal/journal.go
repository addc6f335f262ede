// Package journal is the durable spine of the pracsimd job queue: an
// append-only, fsync-batched, per-record-checksummed event log of the
// queue's open (schema and argument fingerprint), its jobs, lease grants
// and acks, so a daemon that is SIGKILLed, OOM-killed or preempted
// mid-grid restores its queue with zero lost work instead of starting
// over. Run records (key and result payload) are accepted too; recovery
// validates them as frames but replays no state from them.
//
// The journal is strictly a redo log, never a correctness dependency: a
// lost, truncated or corrupt journal costs re-execution, nothing else.
// That asymmetry shapes recovery — Open scans the file record by
// record, keeps every frame whose checksum validates, and truncates the
// first torn or corrupt frame and everything after it (a crash mid-
// append tears the tail; keeping the valid prefix is strictly better
// than failing the session), reporting what it replayed and what it
// cut.
//
// Layout: a one-line magic header, then length-prefixed frames
//
//	[uint32 length][JSON record][uint32 CRC32-C of the record]
//
// The first record is always the session-open record carrying the
// simulator schema version and the caller's argument fingerprint; a
// journal whose open record does not match the resuming process is
// rotated aside (renamed *.stale) rather than replayed — results from a
// different grid must never leak into this one.
//
// Appends are batched for durability: records are written immediately
// but fsync'd every SyncEvery records or SyncInterval, whichever comes
// first, and checkpoints the caller cannot afford to lose (a submitted
// job, an acked work item) sync before returning. A record that misses
// its fsync before a crash is simply re-executed on resume.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pracsim/internal/fault"
)

// magic stamps the journal file format; a layout change bumps the
// suffix and orphans old journals (they rotate aside as stale).
const magic = "pracsim-journal/1\n"

// maxRecord bounds a single record frame. A length prefix beyond it is
// corruption by definition (run payloads are KBs), and the bound keeps
// recovery from allocating garbage-length buffers.
const maxRecord = 64 << 20

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// every platform this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record types.
const (
	typeOpen  = "open"
	typeRun   = "run"
	typeJob   = "job"
	typeLease = "lease"
	typeAck   = "ack"
)

// record is one journal entry. A single struct covers every type; JSON
// omits the fields a type does not use.
type record struct {
	Type    string   `json:"t"`
	Schema  int      `json:"schema,omitempty"` // open
	FP      string   `json:"fp,omitempty"`     // open
	Key     string   `json:"key,omitempty"`    // run
	Payload []byte   `json:"p,omitempty"`      // run, job (grid spec)
	Shard   string   `json:"shard,omitempty"`  // lease, ack ("i/n")
	File    string   `json:"file,omitempty"`   // ack
	Runs    int      `json:"runs,omitempty"`   // job, ack
	Items   []string `json:"items,omitempty"`  // job (submitted work items, "i/n")
	Warm    int      `json:"warm,omitempty"`   // job (run keys warm at submission)
	Job     string   `json:"job,omitempty"`    // job, lease, ack (job id)
	Token   string   `json:"token,omitempty"`  // job (tenant identity)
	Prio    int      `json:"prio,omitempty"`   // job
	Status  string   `json:"status,omitempty"` // job ("" = submitted)
	Worker  string   `json:"worker,omitempty"` // lease
	Msg     string   `json:"msg,omitempty"`    // job (failure detail)
	Exec    int64    `json:"exec,omitempty"`   // ack (simulations the worker executed)
}

// JobRecord is a journaled experiment-service job event: the submission
// (Status empty, Spec carrying the grid) or a later terminal transition
// for the same id (Status "done"/"failed"/"canceled", Spec empty). The
// queue folds the sequence per id; the last status wins.
type JobRecord struct {
	ID       string
	Token    string // tenant identity (quotas, fairness)
	Priority int
	Spec     []byte // grid spec JSON; submission records only
	// Items lists the submitted work items ("i/n") and Warm counts the
	// run keys the store already held; submission records only. The
	// store-dedup that chose them is not repeated on restore: the store
	// has moved on since, and the job must come back exactly as queued.
	Items  []string
	Warm   int
	Status string // "" = submitted
	Runs   int    // done: simulations the job executed in total
	Msg    string // failed: what went wrong
}

// LeaseRecord is a journaled work-item lease grant. A restarted daemon
// voids live leases and requeues every unacked item, so these replay
// only to preserve per-item attempt counts across a crash.
type LeaseRecord struct {
	Job    string
	Item   string // shard "i/n"
	Worker string
}

// AckRecord is a journaled work-item completion: the durable shard file
// a worker delivered. Replayed acks are exactly what keeps a resumed
// queue from re-executing finished work.
type AckRecord struct {
	Job  string
	Item string // shard "i/n"
	File string
	Runs int
	// Exec counts the simulations the worker actually executed for this
	// item (store hits excluded) — telemetry a resumed queue reports
	// faithfully instead of guessing.
	Exec int64
}

// Options configures Open.
type Options struct {
	// Schema is the simulator schema version stamped into (and checked
	// against) the session-open record. Required.
	Schema int
	// Fingerprint identifies the session's arguments (see Fingerprint);
	// a journal opened with a different fingerprint is rotated aside
	// and the session starts fresh. Required.
	Fingerprint string
	// SyncEvery is the fsync batch size in records (default 8).
	SyncEvery int
	// SyncInterval bounds how long an appended record waits for its
	// batch fsync (default 100ms).
	SyncInterval time.Duration
}

// Recovery reports what Open found in an existing journal.
type Recovery struct {
	// Records counts valid records replayed (the open record included).
	Records int
	// TruncatedBytes is the torn tail Open cut (0 for a clean file).
	TruncatedBytes int64
	// Rotated names why a prior journal was moved aside ("" when the
	// file was adopted or absent).
	Rotated string
	// Fresh reports that no prior state was replayed.
	Fresh bool
	// Jobs lists replayed experiment-service job events in append order
	// (submissions and terminal transitions alike; the queue folds them).
	Jobs []JobRecord
	// Leases lists replayed lease grants, for attempt accounting.
	Leases []LeaseRecord
	// Acks lists replayed work-item completions.
	Acks []AckRecord
}

// Stats snapshots a journal's traffic counters.
type Stats struct {
	// Appended counts records appended by this process.
	Appended int64 `json:"appended"`
	// Replayed counts records recovered from the prior journal at open.
	Replayed int64 `json:"replayed"`
	// TruncatedBytes is the torn tail cut at open.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// Syncs counts fsync batches.
	Syncs int64 `json:"syncs,omitempty"`
	// AppendErrors counts failed appends (each degraded to "this record
	// will be re-executed on resume", never a session failure).
	AppendErrors int64 `json:"append_errors,omitempty"`
	// Dropped counts appends discarded after the journal broke (a torn
	// write that could not be repaired).
	Dropped int64 `json:"dropped,omitempty"`
}

// Journal is an open journal. All methods are safe for concurrent use.
type Journal struct {
	path string
	opts Options

	mu      sync.Mutex
	f       *os.File
	off     int64 // end of the last known-good frame
	pending int   // appends since the last fsync
	timer   *time.Timer
	broken  bool // a torn write could not be repaired; appends drop
	closed  bool

	appended, replayed, truncated, syncs, appendErrs, dropped int64

	statsMu sync.Mutex
}

// Fingerprint condenses the parts that define a session's identity
// (schema, experiment selection, scale budgets, workload set …) into a
// short stable hex string. Two invocations resume each other exactly
// when their fingerprints match.
func Fingerprint(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x1f")))
	return hex.EncodeToString(h[:8])
}

// errBroken reports appends after an unrepairable torn write.
var errBroken = errors.New("journal: disabled after unrepairable torn write")

// Open opens (creating if needed) the journal at path, replays its
// valid records, truncates any torn tail, and positions it for append.
// A journal whose open record names a different schema or fingerprint
// is rotated to path+".stale" and a fresh journal started — resuming a
// different session's journal would be worse than starting over.
func Open(path string, opts Options) (*Journal, *Recovery, error) {
	if opts.Fingerprint == "" {
		return nil, nil, errors.New("journal: empty fingerprint")
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 8
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	//praclint:allow failpoint Open-time setup runs before the journal is published; recovery behavior is exercised by writing real torn/stale files, not by injection
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	rec := &Recovery{}
	for attempt := 0; ; attempt++ {
		//praclint:allow failpoint Open-time setup; see the MkdirAll note above
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		j, reason, err := adopt(f, path, opts, rec)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if j != nil {
			return j, rec, nil
		}
		// The file is not this session's journal (wrong magic, schema or
		// fingerprint, or an unreadably short header). Rotate it aside and
		// start fresh — once; a second failure means the path itself is
		// unusable.
		f.Close()
		if attempt > 0 {
			return nil, nil, fmt.Errorf("journal: %s unusable after rotation (%s)", path, reason)
		}
		//praclint:allow failpoint Open-time rotation of a foreign journal; see the MkdirAll note above
		if err := os.Rename(path, path+".stale"); err != nil {
			return nil, nil, fmt.Errorf("journal: rotating mismatched %s: %w", path, err)
		}
		rec.Rotated = reason
	}
}

// adopt scans an opened journal file. It returns a ready journal, or
// (nil, reason, nil) when the file belongs to a different session and
// must be rotated.
func adopt(f *os.File, path string, opts Options, rec *Recovery) (*Journal, string, error) {
	//praclint:allow failpoint adopt is the recovery scan itself, pre-publish; chaos injection begins once the journal is live
	fi, err := f.Stat()
	if err != nil {
		return nil, "", fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, opts: opts, f: f}

	if fi.Size() == 0 {
		// Fresh file: stamp the header and open record now, durably —
		// the one sync correctness of recovery does depend on, because
		// it anchors fingerprint matching.
		//praclint:allow failpoint pre-publish header stamp; see the adopt note above
		if _, err := f.WriteString(magic); err != nil {
			return nil, "", fmt.Errorf("journal: %w", err)
		}
		j.off = int64(len(magic))
		if err := j.appendRecord(record{Type: typeOpen, Schema: opts.Schema, FP: opts.Fingerprint}); err != nil {
			return nil, "", fmt.Errorf("journal: writing open record: %w", err)
		}
		if err := j.Sync(); err != nil {
			return nil, "", fmt.Errorf("journal: %w", err)
		}
		rec.Fresh = true
		return j, "", nil
	}

	// Existing file: check the magic, replay frames, truncate the tail.
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != magic {
		return nil, "not a pracsim journal", nil
	}
	off := int64(len(magic))
	sawOpen := false
	for {
		r, frameLen, ok := readFrame(f, fi.Size()-off)
		if !ok {
			break
		}
		if !sawOpen {
			if r.Type != typeOpen {
				return nil, "first record is not a session-open record", nil
			}
			if r.Schema != opts.Schema {
				return nil, fmt.Sprintf("schema %d, this simulator is schema %d", r.Schema, opts.Schema), nil
			}
			if r.FP != opts.Fingerprint {
				return nil, fmt.Sprintf("session fingerprint %s, this invocation is %s (different arguments)", r.FP, opts.Fingerprint), nil
			}
			sawOpen = true
		}
		off += frameLen
		rec.Records++
		switch r.Type {
		case typeJob:
			rec.Jobs = append(rec.Jobs, JobRecord{
				ID: r.Job, Token: r.Token, Priority: r.Prio,
				Spec: r.Payload, Items: r.Items, Warm: r.Warm,
				Status: r.Status, Runs: r.Runs, Msg: r.Msg,
			})
		case typeLease:
			rec.Leases = append(rec.Leases, LeaseRecord{Job: r.Job, Item: r.Shard, Worker: r.Worker})
		case typeAck:
			rec.Acks = append(rec.Acks, AckRecord{Job: r.Job, Item: r.Shard, File: r.File, Runs: r.Runs, Exec: r.Exec})
		}
	}
	if !sawOpen {
		return nil, "no valid session-open record", nil
	}
	if cut := fi.Size() - off; cut > 0 {
		//praclint:allow failpoint torn-tail truncation during recovery, pre-publish; see the adopt note above
		if err := f.Truncate(off); err != nil {
			return nil, "", fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
		rec.TruncatedBytes = cut
		j.truncated = cut
	}
	//praclint:allow failpoint recovery repositioning, pre-publish; see the adopt note above
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, "", fmt.Errorf("journal: %w", err)
	}
	j.off = off
	j.replayed = int64(rec.Records)
	rec.Fresh = rec.Records <= 1 // just the open record
	return j, "", nil
}

// readFrame reads one frame at the reader's position, with remaining
// bytes left in the file; ok is false at a clean EOF or at the first
// sign of tearing or corruption (short frame, a length beyond maxRecord
// or the file's end, checksum mismatch, undecodable record).
func readFrame(r io.Reader, remaining int64) (rec record, frameLen int64, ok bool) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return record{}, 0, false
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxRecord || int64(n)+8 > remaining {
		return record{}, 0, false
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return record{}, 0, false
	}
	body, sumBytes := buf[:n], buf[n:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(sumBytes) {
		return record{}, 0, false
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return record{}, 0, false
	}
	return rec, int64(len(lenBuf)) + int64(len(buf)), true
}

// encodeFrame renders a record as one append frame.
func encodeFrame(r record) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	frame := make([]byte, 4+len(body)+4)
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	binary.LittleEndian.PutUint32(frame[4+len(body):], crc32.Checksum(body, crcTable))
	return frame, nil
}

// AppendRun journals one completed run (key and result payload).
// Best-effort like every append; recovery validates run records as
// frames but replays no state from them.
func (j *Journal) AppendRun(key string, payload []byte) error {
	return j.append(record{Type: typeRun, Key: key, Payload: payload})
}

// AppendJob journals a job submission or terminal transition, then
// syncs — a job id already handed to a client (or a completion already
// reported) must survive the next crash.
func (j *Journal) AppendJob(r JobRecord) error {
	err := j.append(record{
		Type: typeJob, Job: r.ID, Token: r.Token, Prio: r.Priority,
		Payload: r.Spec, Items: r.Items, Warm: r.Warm,
		Status: r.Status, Runs: r.Runs, Msg: r.Msg,
	})
	if err != nil {
		return err
	}
	return j.Sync()
}

// AppendLease journals a work-item lease grant. Unsynced on purpose:
// losing one costs an attempt count on resume, never work.
func (j *Journal) AppendLease(r LeaseRecord) error {
	return j.append(record{Type: typeLease, Job: r.Job, Shard: r.Item, Worker: r.Worker})
}

// AppendAck journals a completed work item, then syncs — an acked item
// is exactly the checkpoint that makes a resumed queue re-execute
// nothing.
func (j *Journal) AppendAck(r AckRecord) error {
	if err := j.append(record{Type: typeAck, Job: r.Job, Shard: r.Item, File: r.File, Runs: r.Runs, Exec: r.Exec}); err != nil {
		return err
	}
	return j.Sync()
}

func (j *Journal) append(r record) error {
	frame, err := encodeFrame(r)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.broken {
		j.statsMu.Lock()
		j.dropped++
		j.statsMu.Unlock()
		return errBroken
	}
	//praclint:allow locks the append failpoint must fire inside the critical section to model a fault at the exact write site; the torn-write repair relies on mu serializing it
	return j.appendLockedWithFaults(frame)
}

// appendRecord writes a frame during Open, before the journal is
// published — no fault injection, no batching arithmetic beyond off.
func (j *Journal) appendRecord(r record) error {
	frame, err := encodeFrame(r)
	if err != nil {
		return err
	}
	//praclint:allow failpoint pre-publish Open-time write path, deliberately without injection; the live path is appendLockedWithFaults
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	j.off += int64(len(frame))
	j.pending++
	return nil
}

// appendLockedWithFaults is the live append path: the journal.append
// failpoint, the write, and the torn-write self-repair.
func (j *Journal) appendLockedWithFaults(frame []byte) error {
	countErr := func(err error) error {
		j.statsMu.Lock()
		j.appendErrs++
		j.statsMu.Unlock()
		return err
	}
	if a := fault.Fire(fault.JournalAppend); a != nil {
		switch a.Kind {
		case fault.Err:
			return countErr(a.Err("append " + j.path))
		case fault.Short:
			// A partial frame lands on disk; the repair path below cuts
			// it back out, exactly as for a real short write.
			j.f.Write(frame[:len(frame)/2])
			j.repairLocked()
			return countErr(fmt.Errorf("journal: append %s: injected %w", j.path, io.ErrShortWrite))
		case fault.Torn:
			// The crash-mid-append case: a partial frame stays on disk
			// and this process stops journaling, as if it had died here.
			// The next Open truncates the tear and resumes from the
			// valid prefix.
			j.f.Write(frame[:3*len(frame)/4])
			j.broken = true
			return countErr(fmt.Errorf("journal: append %s: injected torn write", j.path))
		}
	}
	n, err := j.f.Write(frame)
	if err != nil || n < len(frame) {
		j.repairLocked()
		if err == nil {
			err = io.ErrShortWrite
		}
		return countErr(fmt.Errorf("journal: append %s: %w", j.path, err))
	}
	j.off += int64(len(frame))
	j.statsMu.Lock()
	j.appended++
	j.statsMu.Unlock()
	j.pending++
	if j.pending >= j.opts.SyncEvery {
		return j.syncLocked()
	}
	j.armTimerLocked()
	return nil
}

// repairLocked cuts a partial frame back off the file after a failed
// write. If even the truncate fails the journal is broken: further
// appends would land after the tear and be unrecoverable, so they drop
// instead.
func (j *Journal) repairLocked() {
	if j.f.Truncate(j.off) != nil {
		j.broken = true
		return
	}
	if _, err := j.f.Seek(j.off, io.SeekStart); err != nil {
		j.broken = true
	}
}

// armTimerLocked schedules the batch fsync for records that would
// otherwise wait on a slow trickle of appends.
func (j *Journal) armTimerLocked() {
	if j.timer != nil {
		return
	}
	j.timer = time.AfterFunc(j.opts.SyncInterval, func() { j.Sync() })
}

// Sync flushes appended records to stable storage. A failed sync leaves
// the journal usable — the records are written, their durability is
// simply not yet proven, and the next sync retries.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	//praclint:allow locks the sync failpoint must fire under mu so an injected sync error and a real one leave identical pending state
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	if j.closed || j.pending == 0 {
		return nil
	}
	if a := fault.Fire(fault.JournalSync); a != nil && a.Kind == fault.Err {
		return a.Err("sync " + j.path)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	j.pending = 0
	j.statsMu.Lock()
	j.syncs++
	j.statsMu.Unlock()
	return nil
}

// Close syncs and closes the journal. Further appends drop.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	//praclint:allow locks final sync under mu; same contract as Sync above
	serr := j.syncLocked()
	j.closed = true
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.statsMu.Lock()
	defer j.statsMu.Unlock()
	return Stats{
		Appended:       j.appended,
		Replayed:       j.replayed,
		TruncatedBytes: j.truncated,
		Syncs:          j.syncs,
		AppendErrors:   j.appendErrs,
		Dropped:        j.dropped,
	}
}

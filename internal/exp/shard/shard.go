// Package shard partitions an experiment grid across machines. The
// pool's indexed-job model already makes every (variant, workload) cell
// an independent simulation; sharding assigns each distinct run key to
// exactly one of n shards by key hash, so shards never duplicate work —
// not even the per-workload baselines that many grid cells share — and
// the union of the shards' executed runs is exactly the unsharded run
// set.
//
// A shard run executes only its owned cells and emits its results as one
// shard file: a header line naming the format, simulator schema and
// shard, followed by the executed (key, payload) entries sorted by key.
// Merging imports every shard's entries back into a session (and,
// optionally, its persistent store); the figures and tables are then
// assembled positionally from fully-warm caches, bit-identical to an
// unsharded run.
package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"pracsim/internal/fault"
)

// format stamps the shard-file header; a layout change bumps the suffix.
const format = "pracsim-shard/1"

// Spec selects one shard of a partition. The zero value means unsharded:
// every key is owned.
type Spec struct {
	Index int
	Count int
}

// Parse reads an "i/n" shard spec (0 <= i < n, n >= 1).
func Parse(s string) (Spec, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Spec{}, fmt.Errorf("shard: %q is not i/n", s)
	}
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil {
		return Spec{}, fmt.Errorf("shard: %q is not i/n", s)
	}
	if n < 1 || i < 0 || i >= n {
		return Spec{}, fmt.Errorf("shard: %q out of range (want 0 <= i < n)", s)
	}
	return Spec{Index: i, Count: n}, nil
}

// Enabled reports whether the spec actually partitions (an unset spec or
// 0/1 owns everything).
func (sp Spec) Enabled() bool { return sp.Count > 1 }

// String renders the spec as "i/n".
func (sp Spec) String() string { return fmt.Sprintf("%d/%d", sp.Index, sp.Count) }

// Owns reports whether this shard executes the given run key. The
// assignment hashes the canonical key string, so it is deterministic
// across machines, independent of grid enumeration order, and partitions
// the key space: for any key exactly one shard of a given Count owns it.
func (sp Spec) Owns(key string) bool {
	if !sp.Enabled() {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64()%uint64(sp.Count)) == sp.Index
}

// Entry is one executed run in a shard file: the versioned store key and
// the stable-encoded result payload.
type Entry struct {
	Key     string `json:"key"`
	Payload []byte `json:"payload"`
}

// header is the shard file's first line.
type header struct {
	Format string `json:"format"`
	Schema int    `json:"schema"`
	Shard  string `json:"shard"`
	Runs   int    `json:"runs"`
}

// WriteFile emits a shard result file. Entries are written sorted by key,
// so a shard's output is deterministic regardless of execution order.
//
// The file is published atomically (temp file + rename, the store's
// pattern): a worker crashing or being killed mid-write leaves no file
// behind rather than a torn one, and a concurrent reader only ever
// observes a complete, self-consistent file.
func WriteFile(path string, schema int, sp Spec, entries []Entry) error {
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(header{Format: format, Schema: schema, Shard: sp.String(), Runs: len(sorted)}); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	for _, e := range sorted {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
	}
	// The temp file is opened with the final 0644 (umask applies, as it
	// did under os.WriteFile) rather than CreateTemp's 0600-plus-chmod,
	// which would force world-readable files past a restrictive umask.
	// The pid suffix keeps concurrent processes apart; within a process
	// every attempt writes a distinct path.
	out := buf.Bytes()
	if a := fault.Fire(fault.ShardWrite); a != nil {
		switch a.Kind {
		case fault.Err:
			return a.Err("write " + path)
		case fault.Short:
			// Publish the torn write: the tmp suffix means no reader sees
			// it, exactly like a worker killed mid-write.
			out = out[:len(out)/2]
			tmpName := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
			os.WriteFile(tmpName, out, 0o644)
			return fmt.Errorf("shard: write %s: injected %w", path, io.ErrShortWrite)
		}
	}
	tmpName := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	tmp, err := os.OpenFile(tmpName, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		return fmt.Errorf("shard: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// ReadFile parses a shard result file, rejecting files from another
// format or simulator schema (a stale shard must never be merged into
// figures silently).
//
// Entries stream through a json.Decoder rather than a line scanner: a
// full-scale shard entry can exceed any fixed line buffer (the previous
// scanner capped lines at 16 MiB and failed with "token too long"), and
// the decoder reads values, not lines, so entry size is bounded only by
// memory. The header/Runs count check still catches truncation.
func ReadFile(path string, schema int) ([]Entry, error) {
	var entries []Entry
	if _, err := scanFile(path, schema, func(e Entry) { entries = append(entries, e) }); err != nil {
		return nil, err
	}
	return entries, nil
}

// Validate streams a shard file through the same format, schema and
// truncation checks as ReadFile but discards the entries, reporting
// only how many runs the file holds — the service's ack check, which
// must not hold a full-scale shard in memory twice.
func Validate(path string, schema int) (int, error) {
	return scanFile(path, schema, nil)
}

// scanFile is the shared streaming reader: header checks, per-entry
// decode (delivered to each when non-nil) and the Runs count check.
func scanFile(path string, schema int, each func(Entry)) (int, error) {
	act := fault.Fire(fault.ShardRead)
	if act != nil && act.Kind == fault.Err {
		return 0, act.Err("read " + path)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	var rd io.Reader = bufio.NewReader(f)
	if act != nil && act.Kind == fault.Corrupt {
		// A bit flip in the stream: the JSON decode or the header/Runs
		// check downstream must catch it, never a silent bad merge.
		rd = &corruptReader{r: rd}
	}
	dec := json.NewDecoder(rd)
	var h header
	if err := dec.Decode(&h); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, fmt.Errorf("shard: %s: empty file", path)
		}
		return 0, fmt.Errorf("shard: %s is not a %s file", path, format)
	}
	if h.Format != format {
		return 0, fmt.Errorf("shard: %s is not a %s file", path, format)
	}
	if h.Schema != schema {
		return 0, fmt.Errorf("shard: %s has schema %d, this simulator is schema %d", path, h.Schema, schema)
	}
	count := 0
	for {
		var e Entry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, fmt.Errorf("shard: %s entry %d: %w", path, count, err)
		}
		if each != nil {
			each(e)
		}
		count++
	}
	if count != h.Runs {
		return 0, fmt.Errorf("shard: %s holds %d runs, header says %d (truncated?)", path, count, h.Runs)
	}
	return count, nil
}

// corruptReader flips one byte partway into the stream — the shard.read
// failpoint's bitrot vehicle.
type corruptReader struct {
	r    io.Reader
	read int64
	done bool
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	// Flip a byte once, past the header region, so the corruption lands
	// in entry data rather than trivially failing the first decode.
	if !c.done && n > 0 && c.read+int64(n) > 256 {
		i := 256 - c.read
		if i < 0 || i >= int64(n) {
			i = int64(n) - 1
		}
		p[i] ^= 0x80
		c.done = true
	}
	c.read += int64(n)
	return n, err
}

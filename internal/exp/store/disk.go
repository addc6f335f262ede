package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pracsim/internal/fault"
)

// magic stamps the entry-file format; a format change bumps the suffix.
const magic = "pracstore1\n"

// EncodeFrame frames a (key, payload) pair into the self-validating
// entry-file format:
//
//	magic | keyLen uvarint | key | payloadLen uvarint | payload | sha256(payload)
func EncodeFrame(key string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var lenbuf [binary.MaxVarintLen64]byte
	buf.Write(lenbuf[:binary.PutUvarint(lenbuf[:], uint64(len(key)))])
	buf.WriteString(key)
	buf.Write(lenbuf[:binary.PutUvarint(lenbuf[:], uint64(len(payload)))])
	buf.Write(payload)
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	return buf.Bytes()
}

// DecodeFrame validates a framed entry against the expected key and
// returns its payload. Any deviation — wrong magic, truncation, a
// different key under the same hash, a checksum mismatch — is an error.
func DecodeFrame(data []byte, key string) ([]byte, error) {
	gotKey, payload, err := DecodeFrameAny(data)
	if err != nil {
		return nil, err
	}
	if gotKey != key {
		return nil, fmt.Errorf("store: key mismatch (hash collision or tampering)")
	}
	return payload, nil
}

// parseFrameHeader reads a frame's prefix — magic, key, payload length —
// without touching the payload, reporting where the payload starts. The
// one parser both full validation (DecodeFrameAny) and cheap metadata
// (Disk.Stat) build on. The key aliases data, so a caller that only
// compares it allocates nothing.
func parseFrameHeader(data []byte) (key []byte, payLen uint64, headerLen int, err error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, 0, 0, fmt.Errorf("store: bad magic")
	}
	rest := data[len(magic):]
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < keyLen {
		return nil, 0, 0, fmt.Errorf("store: truncated key")
	}
	rest = rest[n:]
	key = rest[:keyLen]
	rest = rest[keyLen:]
	payLen, m := binary.Uvarint(rest)
	if m <= 0 {
		return nil, 0, 0, fmt.Errorf("store: truncated payload length")
	}
	return key, payLen, len(magic) + n + int(keyLen) + m, nil
}

// maxHeaderLen bounds the frame header of an entry stored under key:
// the magic, two uvarint lengths and the key itself.
func maxHeaderLen(key string) int { return len(magic) + 2*binary.MaxVarintLen64 + len(key) }

// DecodeFrameAny validates a framed entry without an expected key and
// returns the key it carries alongside the payload — List's validation,
// which learns each key from the file itself.
func DecodeFrameAny(data []byte) (key string, payload []byte, err error) {
	rawKey, payLen, headerLen, err := parseFrameHeader(data)
	if err != nil {
		return "", nil, err
	}
	rest := data[headerLen:]
	// Compare without adding to payLen: a crafted length near 2^64 must
	// fail here, not wrap around and panic in the slice expression.
	if uint64(len(rest)) < payLen || uint64(len(rest))-payLen != sha256.Size {
		return "", nil, fmt.Errorf("store: truncated payload")
	}
	payload = rest[:payLen]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], rest[payLen:]) {
		return "", nil, fmt.Errorf("store: payload checksum mismatch")
	}
	return string(rawKey), payload, nil
}

// Disk is the local-directory backend: one checksummed entry file per
// key, named by the key's hash. Writes go through a temp file and an
// atomic rename, so concurrent writers (even across processes sharing
// one store directory) only ever publish complete, self-validating
// entries. Stores written by earlier releases read back as-is.
type Disk struct {
	dir string

	// lc is the budget/eviction layer, nil unless DiskOptions.BudgetBytes
	// was set — a budget-less Disk pays one nil check per operation.
	lc *lifecycle

	// quarantined counts entries Get moved aside after they failed
	// validation; see Quarantined.
	quarantined atomic.Int64
	// tmpSwept counts orphaned put-*.tmp files removed at Open; see
	// TmpSwept.
	tmpSwept atomic.Int64
}

// DefaultTmpSweepAge gates the Open-time temp sweep: only put-*.tmp
// files this stale are orphans. A younger temp file may belong to a
// concurrent writer mid-writeAtomic (another fleet worker sharing the
// directory), and deleting it would fail that writer's rename.
const DefaultTmpSweepAge = time.Hour

// DiskOptions tunes the disk backend. The zero value means defaults, so
// OpenDiskWith(dir, DiskOptions{}) == OpenDisk(dir).
type DiskOptions struct {
	// BudgetBytes caps the store's entry-file footprint: when a Put
	// pushes past it, a background sweep evicts least-recently-accessed
	// entries until the footprint is ~90% of the budget. 0 disables
	// eviction (the default — the store grows unbounded, as before).
	BudgetBytes int64
}

// OpenDisk creates (if needed) and returns the disk backend rooted at dir.
func OpenDisk(dir string) (*Disk, error) {
	return OpenDiskWith(dir, DiskOptions{})
}

// OpenDiskWith is OpenDisk with explicit lifecycle options. When a
// budget is configured, the access-time index is rebuilt from the entry
// files' mtimes and an immediately over-budget store starts a sweep
// right away.
func OpenDiskWith(dir string, opts DiskOptions) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	//praclint:allow failpoint open-time setup; chaos schedules target the live get/put/evict paths, and a setup failure fails Open loudly
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{dir: dir}
	if opts.BudgetBytes > 0 {
		d.lc = &lifecycle{budget: opts.BudgetBytes}
		d.lc.rebuild(dir)
	}
	d.sweepTmp()
	d.maybeSweep()
	return d, nil
}

// sweepTmp removes stale put-*.tmp files — the debris a process killed
// mid-writeAtomic leaves behind, which the deferred cleanup never ran
// for. Age-gated (DefaultTmpSweepAge) and best-effort: a sweep failure
// costs disk space, never correctness.
func (d *Disk) sweepTmp() {
	//praclint:allow failpoint best-effort debris sweep; a failure costs disk space, never correctness
	tmps, err := filepath.Glob(filepath.Join(d.dir, "put-*.tmp"))
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-DefaultTmpSweepAge)
	for _, path := range tmps {
		//praclint:allow failpoint best-effort debris sweep; a failure costs disk space, never correctness
		fi, err := os.Stat(path)
		if err != nil || fi.ModTime().After(cutoff) {
			continue
		}
		//praclint:allow failpoint best-effort debris sweep; a failure costs disk space, never correctness
		if os.Remove(path) == nil {
			d.tmpSwept.Add(1)
		}
	}
}

// TmpSwept reports how many orphaned temp files Open removed.
func (d *Disk) TmpSwept() int64 { return d.tmpSwept.Load() }

// Dir reports the backend's root directory.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) path(key string) string { return d.hashPath(Hash(key)) }

func (d *Disk) hashPath(hash string) string {
	return filepath.Join(d.dir, hash+".run")
}

// Get returns the payload stored under key: ErrNotFound when absent, a
// validation error when the entry is truncated, corrupted or colliding.
// An entry that fails validation is quarantined — renamed to
// *.quarantine, out of the .run namespace — so the bad bytes are read
// and rejected once, not on every access, while staying on disk for
// diagnosis.
func (d *Disk) Get(key string) ([]byte, error) {
	hash := Hash(key)
	path := d.hashPath(hash)
	if a := fault.Fire(fault.StoreDiskEvict); a != nil && a.Kind == fault.Evict {
		// Injected eviction: the entry vanishes before it is served, so
		// this read (and every later one until a re-Put) is a plain miss.
		d.injectEvict(hash)
	}
	act := fault.Fire(fault.StoreDiskGet)
	if act != nil && act.Kind == fault.Err {
		return nil, act.Err("get " + path)
	}
	d.lcPin(hash)
	defer d.lcUnpin(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	if act != nil && act.Kind == fault.Corrupt {
		data = fault.CorruptByte(data)
	}
	payload, err := DecodeFrame(data, key)
	if err != nil {
		d.quarantine(path)
		d.lcForget(hash)
		return nil, err
	}
	d.lcTouchGet(hash)
	return payload, nil
}

// quarantine moves a failed-validation entry aside, best-effort: the
// rename removes it from the .run namespace (List, Stat and future Gets
// see it as absent) while keeping the bytes for diagnosis. A re-Put of
// the key publishes a fresh entry at the original path.
func (d *Disk) quarantine(path string) {
	if os.Rename(path, path+".quarantine") == nil {
		d.quarantined.Add(1)
	}
}

// Quarantined reports how many corrupt entries this backend moved aside.
func (d *Disk) Quarantined() int64 { return d.quarantined.Load() }

// Put stores payload under key via the atomic temp-file + rename path.
func (d *Disk) Put(key string, payload []byte) error {
	if a := fault.Fire(fault.StoreDiskPut); a != nil {
		switch a.Kind {
		case fault.ENOSPC:
			return fmt.Errorf("store: put %s: injected %w", d.dir, syscall.ENOSPC)
		case fault.Short:
			return fmt.Errorf("store: put %s: injected %w", d.dir, io.ErrShortWrite)
		case fault.Err:
			return a.Err("put " + d.dir)
		case fault.Delay:
			time.Sleep(a.Value)
		}
	}
	hash := Hash(key)
	frame := EncodeFrame(key, payload)
	// Pinned across the publish so a concurrent budget sweep cannot
	// select the entry while it is being (re)written — the sweep would
	// otherwise race the rename and delete what was just published.
	d.lcPin(hash)
	defer d.lcUnpin(hash)
	if err := d.writeAtomic(d.hashPath(hash), frame); err != nil {
		return err
	}
	d.lcTouchPut(hash, int64(len(frame)))
	return nil
}

// Stat describes the entry under key without reading its payload: only
// the frame header is parsed, and the file size is checked against the
// declared payload length (so truncation reads as absent). The payload
// checksum is Get's job — Stat answers "is a plausible entry there and
// how big is it", which is what Stat-before-Put and maintenance need.
func (d *Disk) Stat(key string) (Info, error) {
	//praclint:allow failpoint maintenance surface, not on any hot path; a Stat error degrades to a Put retry, never to wrong data
	f, err := os.Open(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return Info{}, ErrNotFound
		}
		return Info{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	//praclint:allow failpoint maintenance surface; see the Open note above
	fi, err := f.Stat()
	if err != nil {
		return Info{}, fmt.Errorf("store: %w", err)
	}
	// The header of an entry stored under key fits in maxHeaderLen(key)
	// bytes; one that does not carries a different key.
	buf := make([]byte, maxHeaderLen(key))
	n, rerr := io.ReadFull(f, buf)
	if rerr != nil && rerr != io.ErrUnexpectedEOF {
		return Info{}, fmt.Errorf("store: %w", rerr)
	}
	gotKey, payLen, headerLen, err := parseFrameHeader(buf[:n])
	if err != nil {
		return Info{}, err
	}
	if string(gotKey) != key {
		return Info{}, fmt.Errorf("store: key mismatch (hash collision or tampering)")
	}
	if uint64(fi.Size()) != uint64(headerLen)+payLen+sha256.Size {
		return Info{}, fmt.Errorf("store: truncated payload")
	}
	return Info{Key: key, Size: int64(payLen), ModTime: fi.ModTime()}, nil
}

// List enumerates every valid entry in the directory. Files that are not
// entries or fail validation are skipped: the maintenance surface must
// work on damaged stores.
func (d *Disk) List() ([]Info, error) {
	//praclint:allow failpoint maintenance enumeration, tolerant of damage by design; failures skip entries rather than corrupt results
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var infos []Info
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".run") {
			continue
		}
		//praclint:allow failpoint maintenance enumeration; see the ReadDir note above
		data, err := os.ReadFile(filepath.Join(d.dir, name))
		if err != nil {
			continue
		}
		key, payload, err := DecodeFrameAny(data)
		if err != nil || Hash(key)+".run" != name {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		infos = append(infos, Info{Key: key, Size: int64(len(payload)), ModTime: fi.ModTime()})
	}
	return infos, nil
}

// ListEach streams every plausible entry to fn without materializing
// the listing or reading payloads: per entry only the frame header is
// parsed (same discipline as Stat) and the file size checked against the
// declared payload length, so a million-entry store costs one header
// read per entry, not a resident []Info of full-file reads. Damaged or
// foreign files are skipped; an error from fn stops the walk and is
// returned as-is.
func (d *Disk) ListEach(fn func(Info) error) error {
	//praclint:allow failpoint maintenance enumeration; same contract as List
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Run keys are well under 4 KB; a header that does not fit in this
	// prefix is not one of ours.
	buf := make([]byte, 4096)
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".run") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		//praclint:allow failpoint maintenance enumeration; same contract as List
		f, err := os.Open(filepath.Join(d.dir, name))
		if err != nil {
			continue
		}
		n, rerr := io.ReadFull(f, buf)
		f.Close()
		if rerr != nil && rerr != io.ErrUnexpectedEOF {
			continue
		}
		rawKey, payLen, headerLen, err := parseFrameHeader(buf[:n])
		if err != nil {
			continue
		}
		key := string(rawKey)
		if Hash(key)+".run" != name {
			continue
		}
		if uint64(fi.Size()) != uint64(headerLen)+payLen+sha256.Size {
			continue
		}
		if err := fn(Info{Key: key, Size: int64(payLen), ModTime: fi.ModTime()}); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the entry under key.
func (d *Disk) Delete(key string) error {
	hash := Hash(key)
	//praclint:allow failpoint eviction deletes are exercised through the store.disk.evict failpoint on the sweep path; a direct delete error surfaces to the caller unchanged
	err := os.Remove(d.hashPath(hash))
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.lcForget(hash)
	return nil
}

// Footprint reports the directory's raw entry count and file bytes
// without validating entries — cheap enough for a metrics scrape.
func (d *Disk) Footprint() (entries int, bytes int64, err error) {
	//praclint:allow failpoint metrics scrape; an error here feeds a gauge, never a result
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".run") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		entries++
		bytes += fi.Size()
	}
	return entries, bytes, nil
}

// writeAtomic publishes data at path via a temp file in the store
// directory and an atomic rename, so readers and concurrent writers
// (same key or not, same process or not) never observe a partial entry.
func (d *Disk) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalOpen fuzzes recovery on arbitrary journal file bytes. For
// any input Open must not panic and must either rotate the file aside
// (a fresh journal, the original bytes preserved as *.stale) or recover
// a valid prefix (the file cut to exactly the frames it replayed); and
// reopening the recovered journal must yield an identical Recovery.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	journalBytes := func(name string, opts Options, fill func(*Journal)) []byte {
		path := filepath.Join(dir, name)
		j, _, err := Open(path, opts)
		if err != nil {
			f.Fatal(err)
		}
		fill(j)
		if err := j.Close(); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	queue := journalBytes("queue.journal", testOpts(), func(j *Journal) { appendQueueRecords(f, j) })
	runs := journalBytes("runs.journal", testOpts(), func(j *Journal) {
		j.AppendRun("pracsim/run/v3/k", []byte("payload"))
	})
	foreign := journalBytes("foreign.journal", Options{Schema: 3, Fingerprint: Fingerprint("other")}, func(*Journal) {})
	for _, raw := range [][]byte{queue, runs, foreign} {
		f.Add(raw)
		for _, n := range []int{0, len(magic) - 1, len(magic), len(magic) + 5, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:n])
		}
		for _, i := range []int{0, len(magic), len(magic) + 4, len(raw) / 2, len(raw) - 1} {
			flipped := append([]byte(nil), raw...)
			flipped[i] ^= 0x80
			f.Add(flipped)
		}
	}
	f.Add([]byte("this is not a journal\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "q.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen := func() Recovery {
			j, rec, err := Open(path, testOpts())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			return *rec
		}
		rec := reopen()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// What a reopen must see: the same replay, with no tear left to
		// cut — or, for a fresh journal, just its open record.
		want := rec
		want.TruncatedBytes, want.Rotated = 0, ""
		switch {
		case rec.Rotated != "":
			stale, err := os.ReadFile(path + ".stale")
			if err != nil || !bytes.Equal(stale, data) {
				t.Fatalf("rotated journal not preserved as .stale (err %v)", err)
			}
			if !rec.Fresh || rec.Records != 0 || rec.TruncatedBytes != 0 {
				t.Fatalf("rotation replayed state: %+v", rec)
			}
			want = Recovery{Records: 1, Fresh: true}
		case len(data) == 0:
			want = Recovery{Records: 1, Fresh: true}
		default:
			if rec.Records < 1 {
				t.Fatalf("adopted a journal without its open record: %+v", rec)
			}
			if !bytes.Equal(kept, data[:len(kept)]) || rec.TruncatedBytes != int64(len(data)-len(kept)) {
				t.Fatalf("recovery kept %d of %d bytes but reports %d truncated (or rewrote the prefix)",
					len(kept), len(data), rec.TruncatedBytes)
			}
			// What stays on disk is exactly the replayed frames.
			off, frames := int64(len(magic)), 0
			for {
				_, n, ok := readFrame(bytes.NewReader(kept[off:]), int64(len(kept))-off)
				if !ok {
					break
				}
				off += n
				frames++
			}
			if off != int64(len(kept)) || frames != rec.Records {
				t.Fatalf("kept file holds %d valid frames in %d of %d bytes; recovery replayed %d",
					frames, off, len(kept), rec.Records)
			}
		}
		if again := reopen(); !reflect.DeepEqual(again, want) {
			t.Fatalf("reopen recovered %+v, want %+v", again, want)
		}
	})
}

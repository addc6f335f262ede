package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzReadFile fuzzes the shard reader on arbitrary file bytes: shard
// files are what pull workers upload with their acks, so the reader
// sees whatever a worker or the network hands it. For any input,
// ReadFile and Validate must not panic and must agree (same error
// status, Validate's count equal to the entries read). An accepted file
// must stop being accepted under the wrong schema or with a non-space
// byte appended, and its entries must round-trip WriteFile→ReadFile.
func FuzzReadFile(f *testing.F) {
	const schema = 3
	dir := f.TempDir()
	path := filepath.Join(dir, "fuzz.runs")
	seed := func(schema int, entries []Entry) []byte {
		path := filepath.Join(dir, "seed.runs")
		if err := WriteFile(path, schema, Spec{0, 2}, entries); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, entries := range [][]Entry{
		{{Key: "z-last", Payload: []byte(`{"r":3}`)}, {Key: "a-first", Payload: []byte(`{"r":1}`)}, {Key: "m-mid", Payload: []byte{0x00, 0xff, 0x10}}},
		{{Key: "a", Payload: []byte("2")}, {Key: "b", Payload: []byte("3")}},
		{{Key: "k", Payload: []byte("p")}},
		nil,
	} {
		data := seed(schema, entries)
		f.Add(data)
		f.Add(data[:len(data)-1]) // only the final newline gone: still valid
		corrupt := [][]byte{data[:0], data[:1], data[:len(data)/2], data[:len(data)-3],
			append(data[:len(data):len(data)], 'x'), seed(schema+1, entries)}
		for _, c := range corrupt {
			if err := os.WriteFile(path, c, 0o644); err != nil {
				f.Fatal(err)
			}
			if _, err := ReadFile(path, schema); err == nil {
				f.Fatalf("corrupt shard file accepted: %q", c)
			}
			f.Add(c)
		}
	}
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"format":"pracsim-shard/1","schema":3,"shard":"0/1","runs":1}` + "\nnull\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := ReadFile(path, schema)
		n, verr := Validate(path, schema)
		if (err == nil) != (verr == nil) {
			t.Fatalf("ReadFile error %v but Validate error %v", err, verr)
		}
		if err != nil {
			return
		}
		if n != len(entries) {
			t.Fatalf("Validate counts %d runs, ReadFile read %d", n, len(entries))
		}
		if _, err := ReadFile(path, schema+1); err == nil {
			t.Fatal("accepted under the wrong schema")
		}
		if err := os.WriteFile(path, append(data[:len(data):len(data)], 'x'), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path, schema); err == nil {
			t.Fatal("accepted with a byte appended")
		}

		if err := WriteFile(path, schema, Spec{0, 1}, entries); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, schema)
		if err != nil {
			t.Fatalf("rewritten file rejected: %v", err)
		}
		// WriteFile sorts by key; entries sharing a key keep no order.
		byKey := func(es []Entry) []Entry {
			es = append([]Entry(nil), es...)
			sort.Slice(es, func(i, j int) bool {
				if es[i].Key != es[j].Key {
					return es[i].Key < es[j].Key
				}
				return bytes.Compare(es[i].Payload, es[j].Payload) < 0
			})
			return es
		}
		if !reflect.DeepEqual(byKey(got), byKey(entries)) {
			t.Fatalf("WriteFile→ReadFile changed the entries:\n got %+v\nwant %+v", got, entries)
		}
	})
}

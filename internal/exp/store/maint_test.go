package store_test

import (
	"strings"
	"testing"

	"pracsim/internal/exp/store"
)

func TestKeySchema(t *testing.T) {
	cases := map[string]string{
		"pracsim/run/v3/warmup=1/workload=milc": "v3",
		"pracsim/exp/v12/pracleak/fig3":         "v12",
		"pracsim/run/vX/oops":                   "?",
		"pracsim/run":                           "?",
		"someone-elses/key":                     "?",
		"":                                      "?",
	}
	for key, want := range cases {
		if got := store.KeySchema(key); got != want {
			t.Errorf("KeySchema(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestMaintenanceOnDisk: -store-info and -store-prune semantics against
// a directory holding entries across schema versions plus one
// unclassifiable key.
func TestMaintenanceOnDisk(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]int{
		"pracsim/run/v3/a": 10,
		"pracsim/run/v3/b": 20,
		"pracsim/exp/v3/c": 30,
		"pracsim/run/v2/d": 40,
		"pracsim/exp/v1/e": 50,
		"foreign/key":      60,
	}
	for key, size := range entries {
		if err := d.Put(key, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := store.Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 6 || rep.Bytes != 210 {
		t.Errorf("Collect = %d entries, %d bytes; want 6, 210", rep.Entries, rep.Bytes)
	}
	want := []store.SchemaFootprint{
		{Schema: "?", Entries: 1, Bytes: 60},
		{Schema: "v1", Entries: 1, Bytes: 50},
		{Schema: "v2", Entries: 1, Bytes: 40},
		{Schema: "v3", Entries: 3, Bytes: 60},
	}
	if len(rep.Schemas) != len(want) {
		t.Fatalf("schemas = %+v", rep.Schemas)
	}
	for i, w := range want {
		if rep.Schemas[i] != w {
			t.Errorf("schema[%d] = %+v, want %+v", i, rep.Schemas[i], w)
		}
	}
	render := rep.Render()
	for _, frag := range []string{"6 entries", "schema v3", "schema v2", "unrecognized"} {
		if !strings.Contains(render, frag) {
			t.Errorf("Render missing %q:\n%s", frag, render)
		}
	}

	// Prune keeps the current schema and what it cannot classify;
	// orphaned versions go.
	pruned, bytes, err := store.Prune(d, "v3")
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 2 || bytes != 90 {
		t.Errorf("Prune = %d entries, %d bytes; want 2, 90", pruned, bytes)
	}
	rep, err = store.Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 4 || rep.Bytes != 120 {
		t.Errorf("after prune: %d entries, %d bytes; want 4, 120", rep.Entries, rep.Bytes)
	}
	for _, fp := range rep.Schemas {
		if fp.Schema == "v1" || fp.Schema == "v2" {
			t.Errorf("orphaned schema %s survived the prune", fp.Schema)
		}
	}
	// Idempotent: a second prune finds nothing.
	if pruned, _, err := store.Prune(d, "v3"); err != nil || pruned != 0 {
		t.Errorf("second Prune = %d, %v; want 0", pruned, err)
	}
}

// TestParseByteSize pins the -store-budget / -budget flag grammar.
func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"":        0,
		"0":       0,
		"1048576": 1 << 20,
		"512B":    512,
		"4K":      4 << 10,
		"4KB":     4 << 10,
		"512MB":   512 << 20,
		"512mb":   512 << 20,
		"2G":      2 << 30,
		"2GB":     2 << 30,
		" 64 MB ": 64 << 20,
	}
	for in, want := range good {
		got, err := store.ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"-1", "-4KB", "twelve", "12TB", "9999999999999GB", "MB"} {
		if got, err := store.ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) = %d, want error", in, got)
		}
	}
}

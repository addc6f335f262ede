package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pracsim/internal/sim"
)

// FuzzGridSpec fuzzes the submit handler's grid-spec decoder on
// arbitrary request bodies. For any input decodeGridSpec must not
// panic; an accepted spec must re-encode and decode to an equal spec;
// and an accepted body followed by any byte other than JSON whitespace
// must be rejected.
func FuzzGridSpec(f *testing.F) {
	for _, body := range []string{
		`{"exps":["fig12"],"scale":"tiny"}`,
		`{"exps":["fig12"],"scale":"tiny","shards":2}`,
		`{"exps":["fig12"],"scale":"quick","shards":4}`,
		`{"exps":["fig11","fig12"],"scale":"bench","shards":2,"priority":1}`,
		`{"exps":["all"],"scale":"full","priority":3}` + "\n",
		`{`,
		`{"exps":["fig99"],"scale":"tiny"}`,
		`{"exps":["fig12"],"scale":"huge"}`,
		`{"exps":["fig12"],"scale":"tiny","shards":999}`,
		`{"exps":["fig12"],"scale":"tiny","priority":9}`,
		`{"exps":["fig12"],"scale":"tiny","bogus":1}`,
		`{"exps":["fig12"],"scale":"tiny"}garbage`,
		`{"exps":["fig12"],"scale":"tiny"} {"exps":["fig10"],"scale":"tiny"}`,
		``,
		`null`,
	} {
		f.Add([]byte(body), byte('x'))
	}
	f.Fuzz(func(t *testing.T, body []byte, tail byte) {
		g, err := decodeGridSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", g, err)
		}
		again, err := decodeGridSpec(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(again, g) {
			t.Fatalf("re-encoded spec %s decodes to %+v, %v; want %+v", data, again, err, g)
		}
		if strings.IndexByte(" \t\r\n", tail) >= 0 {
			return
		}
		if _, err := decodeGridSpec(bytes.NewReader(append(body[:len(body):len(body)], tail))); err == nil {
			t.Fatalf("accepted %q followed by %q", body, tail)
		}
	})
}

// FuzzJobRecord fuzzes restore on arbitrary spec.json and state bytes
// for one job beside an intact one. For any input the decoders must not
// panic; whatever they accept must re-encode and decode to an equal
// record; and Restore must neither fail nor let the corrupt job touch
// its neighbour, which comes back queued with both its items.
func FuzzJobRecord(f *testing.F) {
	scale := testScales()["tiny"]
	good := jobRecord{
		Schema: sim.SchemaVersion, Token: "a",
		Spec:   GridSpec{Exps: []string{"fig12"}, Scale: "tiny", Shards: 2, Priority: PriorityNormal},
		Warmup: scale.Warmup, Measured: scale.Measured, Workloads: scale.Workloads,
		Items: []string{"0/2", "1/2"}, Keys: 8,
	}
	goodSpec, _ := json.Marshal(good)
	spec := goodSpec
	canceled, _ := json.Marshal(jobState{State: StateCanceled})
	for _, st := range [][]byte{nil, canceled, []byte(`{"state":"failed","error":"boom"}`), []byte(`{"state":"running"}`)} {
		f.Add(spec, st)
	}
	for _, n := range []int{0, 1, len(spec) / 2, len(spec) - 1} {
		f.Add(spec[:n], canceled[:len(canceled)/2])
	}
	f.Add(append(spec[:len(spec):len(spec)], " {}"...), []byte("null"))
	f.Add([]byte(`{"schema":3,"spec":{"exps":["fig12"],"scale":"tiny"},"items":["9/2"]}`), []byte{})
	f.Add([]byte(`{"schema":3,"spec":{"exps":["fig99"],"scale":"huge"},"bogus":1}`), []byte{})

	f.Fuzz(func(t *testing.T, spec, state []byte) {
		var r, rAgain jobRecord
		if decodeStrict(bytes.NewReader(spec), &r) == nil {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", r, err)
			}
			if err := decodeStrict(bytes.NewReader(data), &rAgain); err != nil || !reflect.DeepEqual(rAgain, r) {
				t.Fatalf("re-encoded record %s decodes to %+v, %v; want %+v", data, rAgain, err, r)
			}
		}
		var s, sAgain jobState
		if decodeStrict(bytes.NewReader(state), &s) == nil {
			data, _ := json.Marshal(s)
			if err := decodeStrict(bytes.NewReader(data), &sAgain); err != nil || !reflect.DeepEqual(sAgain, s) {
				t.Fatalf("re-encoded state %s decodes to %+v, %v; want %+v", data, sAgain, err, s)
			}
		}

		dir := t.TempDir()
		for name, data := range map[string][]byte{
			"j1/" + specFile: spec, "j1/" + stateFile: state, "j2/" + specFile: goodSpec,
		} {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		q := NewQueue(QueueOptions{Dir: dir})
		sum, err := q.Restore(testScales(), func(string, ...any) {})
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if sum.Jobs != 2 {
			t.Fatalf("restored %d jobs, want 2 (the fuzzed one, failed or not, and its neighbour)", sum.Jobs)
		}
		if st, ok := q.Status("j2", "a"); !ok || st.State != StateQueued || st.Pending != 2 {
			t.Fatalf("neighbour restored as %+v (ok=%v), want queued with 2 pending items", st, ok)
		}
	})
}

package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

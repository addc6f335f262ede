package service

import (
	"fmt"
	"io"

	"pracsim/internal/exp"
)

// Job priorities. The zero value (from a spec that omits the field)
// normalizes to PriorityNormal.
const (
	PriorityHigh   = 1
	PriorityNormal = 2
	PriorityLow    = 3
)

// MaxShards bounds how many work items one grid may fan into.
const MaxShards = 64

// GridSpec is the wire form of a job submission: which experiments, at
// which scale, split into how many shard work items, at which priority.
// The grammar is exactly tpracsim's: Exps take the -exp names (any of
// fig10..fig14, table5, rfmpb, or "all") and Scale takes the -scale
// names (quick, full).
type GridSpec struct {
	Exps     []string `json:"exps"`
	Scale    string   `json:"scale"`
	Shards   int      `json:"shards,omitempty"`   // work items (default 2, max MaxShards)
	Priority int      `json:"priority,omitempty"` // 1 high, 2 normal (default), 3 low
}

// defaultScales maps the -scale flag grammar onto the session scales.
func defaultScales() map[string]exp.Scale {
	return map[string]exp.Scale{
		"quick": exp.QuickScale(),
		"full":  exp.FullScale(),
	}
}

// normalize validates a spec against the shared flag grammar and
// resolves it: canonical experiment selection, resolved scale, defaults
// applied in place.
func (g *GridSpec) normalize(scales map[string]exp.Scale) (exps []string, scale exp.Scale, err error) {
	exps, err = exp.ExpandExperiments(g.Exps)
	if err != nil {
		return nil, exp.Scale{}, err
	}
	if scales == nil {
		scales = defaultScales()
	}
	scale, ok := scales[g.Scale]
	if !ok {
		return nil, exp.Scale{}, fmt.Errorf("service: unknown scale %q", g.Scale)
	}
	if g.Shards == 0 {
		g.Shards = 2
	}
	if g.Shards < 1 || g.Shards > MaxShards {
		return nil, exp.Scale{}, fmt.Errorf("service: shards %d out of range 1..%d", g.Shards, MaxShards)
	}
	if g.Priority == 0 {
		g.Priority = PriorityNormal
	}
	if g.Priority < PriorityHigh || g.Priority > PriorityLow {
		return nil, exp.Scale{}, fmt.Errorf("service: priority %d out of range %d..%d (high..low)", g.Priority, PriorityHigh, PriorityLow)
	}
	return exps, scale, nil
}

// decodeGridSpec reads a submitted grid spec: exactly one JSON object
// with no unknown fields, followed by nothing but whitespace.
func decodeGridSpec(r io.Reader) (GridSpec, error) {
	var g GridSpec
	if err := decodeStrict(r, &g); err != nil {
		return GridSpec{}, err
	}
	return g, nil
}

package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the simulator's behavioral schema: any change
// that can alter a RunResult for the same configuration (timing model,
// policy semantics, trace synthesis, statistics definitions) must bump it.
// The version is baked into every persistent run key, so a bump silently
// invalidates all previously stored results — stale entries become
// unreachable rather than wrong.
const SchemaVersion = 3

// resultEnvelope is the on-disk form of a RunResult. The schema stamp is
// defense in depth behind the versioned store key: a decoder never
// accepts a payload produced by a different simulator schema even if a
// key somehow survives a version bump.
type resultEnvelope struct {
	Schema int       `json:"schema"`
	Result RunResult `json:"result"`
}

// EncodeResult serializes a RunResult into its stable interchange form.
// The encoding is deterministic (struct fields marshal in declaration
// order, float64 values round-trip exactly), so equal results encode to
// equal bytes and a decoded result reproduces byte-identical reports.
func EncodeResult(r RunResult) ([]byte, error) {
	data, err := json.Marshal(resultEnvelope{Schema: SchemaVersion, Result: r})
	if err != nil {
		return nil, fmt.Errorf("sim: encoding result: %w", err)
	}
	return data, nil
}

// DecodeResult parses a stable-form RunResult, rejecting payloads from a
// different simulator schema, with fields this schema does not know or
// with anything but whitespace after the envelope.
// Note the asymmetry: an entry *missing* a field RunResult gained later
// decodes with that field zero-valued — adding a result field is a
// schema change and must bump SchemaVersion like any other.
func DecodeResult(data []byte) (RunResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env resultEnvelope
	if err := dec.Decode(&env); err != nil {
		return RunResult{}, fmt.Errorf("sim: decoding result: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return RunResult{}, fmt.Errorf("sim: decoding result: trailing data after the envelope")
	}
	if env.Schema != SchemaVersion {
		return RunResult{}, fmt.Errorf("sim: result schema %d, want %d", env.Schema, SchemaVersion)
	}
	return env.Result, nil
}

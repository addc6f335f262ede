package sim

import (
	"fmt"
	"reflect"
)

// DiffResults compares two RunResults modulo Telemetry (the only part of
// a result that may legitimately differ between clockings or machines)
// and returns a human-readable description of the first differing fields,
// or "" when the results are bit-identical.
func DiffResults(a, b RunResult) string {
	a.Telemetry, b.Telemetry = Telemetry{}, Telemetry{}
	if reflect.DeepEqual(a, b) {
		return ""
	}
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	tp := av.Type()
	var diffs []string
	for i := 0; i < tp.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s: %v != %v",
				tp.Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface()))
		}
	}
	if len(diffs) == 0 {
		return "results differ but no field does (internal comparison bug)"
	}
	out := diffs[0]
	for _, d := range diffs[1:] {
		out += "; " + d
	}
	return out
}

// RunDifferential is the differential mode guarding the demand-driven
// clock: it executes the same configuration under both ClockDemand and
// ClockPerCycle and fails loudly unless the results are bit-identical.
// On success it returns the demand-clocked result (whose telemetry shows
// the elision win). It is the slow, paranoid path — roughly the cost of
// both clockings combined — meant for tests and for -differential sweeps
// that validate the elision machinery across whole experiment grids.
func RunDifferential(cfg SystemConfig, warmup, measured int64) (RunResult, error) {
	run := func(clock Clocking) (RunResult, error) {
		c := cfg
		c.Clock = clock
		return Execute(c, warmup, measured)
	}
	demand, err := run(ClockDemand)
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: demand-clocked run: %w", err)
	}
	ref, err := run(ClockPerCycle)
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: per-cycle reference run: %w", err)
	}
	if diff := DiffResults(demand, ref); diff != "" {
		return demand, fmt.Errorf("sim: demand-driven clocking diverged from the per-cycle baseline: %s", diff)
	}
	return demand, nil
}

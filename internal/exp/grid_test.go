package exp

import (
	"reflect"
	"sort"
	"testing"

	"pracsim/internal/exp/store"
)

func TestExpandExperiments(t *testing.T) {
	got, err := ExpandExperiments([]string{"table5", "fig12", "fig12"})
	if err != nil {
		t.Fatalf("ExpandExperiments: %v", err)
	}
	if want := []string{"fig12", "table5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("selection = %v, want %v (canonical order, deduped)", got, want)
	}
	all, err := ExpandExperiments([]string{"all"})
	if err != nil || !reflect.DeepEqual(all, Experiments()) {
		t.Errorf("all = %v (err %v), want the full canonical set", all, err)
	}
	if _, err := ExpandExperiments([]string{"fig12", "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := ExpandExperiments(nil); err == nil {
		t.Error("empty selection accepted")
	}
}

// TestGridKeysMatchSession pins the GridKeys mirror against the real
// run functions: the set of keys an experiment actually resolves at a
// scale must equal what GridKeys enumerates — the experiment service's
// warm-resubmit dedup ("zero work enqueued") depends on exact equality
// in both directions.
func TestGridKeysMatchSession(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) simulations")
	}
	scale := Scale{Warmup: 1_000, Measured: 2_000, Workloads: []string{"433.milc", "444.namd"}}
	for _, name := range []string{"fig10", "fig12", "rfmpb"} {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatalf("store.Open: %v", err)
			}
			sess := NewRunnerWith(scale, SessionOptions{Store: st})
			if _, err := sess.Run(name); err != nil {
				t.Fatalf("running %s: %v", name, err)
			}
			var got []string
			err = st.Disk().ListEach(func(info store.Info) error {
				got = append(got, info.Key)
				return nil
			})
			if err != nil {
				t.Fatalf("listing store: %v", err)
			}
			sort.Strings(got)
			want, err := GridKeys([]string{name}, scale)
			if err != nil {
				t.Fatalf("GridKeys: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: store keys diverge from GridKeys\nstore (%d): %v\ngridkeys (%d): %v",
					name, len(got), got, len(want), want)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	sess := NewRunner(Scale{Warmup: 1, Measured: 1, Workloads: []string{"433.milc"}})
	if _, err := sess.Run("fig99"); err == nil {
		t.Error("unknown experiment name accepted by Run")
	}
}

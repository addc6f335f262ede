package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pracsim/internal/exp/shard"
	"pracsim/internal/exp/store"
	"pracsim/internal/sim"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeScale is small enough that the store tests stay fast but still
// cross the full grid pipeline (baseline + 1-variant sweep).
func storeScale() Scale {
	return Scale{Warmup: 2_000, Measured: 4_000, Workloads: []string{"433.milc"}}
}

// TestWarmStoreSecondSessionExecutesNothing is the tentpole contract: a
// second session against a warm store performs zero simulations and its
// figures are bit-identical to the cold session's.
func TestWarmStoreSecondSessionExecutesNothing(t *testing.T) {
	st := openStore(t)

	cold := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	first, err := cold.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executed() == 0 {
		t.Fatal("cold session executed nothing")
	}
	if hits := cold.StoreStats().Hits; hits != 0 {
		t.Errorf("cold session reported %d store hits", hits)
	}

	warm := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	second, err := warm.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Executed(); n != 0 {
		t.Errorf("warm session executed %d simulations, want 0", n)
	}
	if hits := warm.StoreStats().Hits; hits == 0 {
		t.Error("warm session reported no store hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("warm results differ:\ncold: %+v\nwarm: %+v", first, second)
	}
	if first.Render() != second.Render() || first.CSV() != second.CSV() {
		t.Error("warm render/CSV not byte-identical to cold")
	}
	if !strings.Contains(warm.TelemetryReport(0), "store: ") {
		t.Error("telemetry report missing the store line")
	}
}

// TestCorruptStoreEntryRecomputes: damaging one warm entry must cost
// exactly one recompute — never a crash or a changed figure.
func TestCorruptStoreEntryRecomputes(t *testing.T) {
	st := openStore(t)
	cold := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	first, err := cold.Fig12()
	if err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(st.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries written")
	}
	victim := filepath.Join(st.Spec(), entries[0].Name())
	if err := os.WriteFile(victim, []byte("truncated garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	repair := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	second, err := repair.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if n := repair.Executed(); n != 1 {
		t.Errorf("corrupt entry cost %d recomputes, want exactly 1", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("recomputed figure differs from the original")
	}
	// The recompute's write-back must have repaired the store.
	healed := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	if _, err := healed.Fig12(); err != nil {
		t.Fatal(err)
	}
	if n := healed.Executed(); n != 0 {
		t.Errorf("store not healed: third session executed %d", n)
	}
}

// TestStoreKeyAnatomy pins the persistent key rules: the simulator
// schema version is embedded (a bump invalidates everything), display
// names and defaulted fields never split the key, and budgets, variant
// knobs and workloads all do.
func TestStoreKeyAnatomy(t *testing.T) {
	scale := storeScale()
	base := storeKey(scale, canonicalKey(Variant{Name: "TPRAC", Policy: sim.PolicyTPRAC, NRH: 1024}, "433.milc"))
	if !strings.Contains(base, fmt.Sprintf("/v%d/", sim.SchemaVersion)) {
		t.Errorf("key %q does not embed schema version %d", base, sim.SchemaVersion)
	}
	renamed := storeKey(scale, canonicalKey(Variant{Name: "other", Policy: sim.PolicyTPRAC, NRH: 0, PRACLevel: 1}, "433.milc"))
	if base != renamed {
		t.Errorf("display name split the key:\n%s\n%s", base, renamed)
	}
	distinct := []string{
		storeKey(scale, canonicalKey(Variant{Policy: sim.PolicyTPRAC, NRH: 512}, "433.milc")),
		storeKey(scale, canonicalKey(Variant{Policy: sim.PolicyTPRAC, NRH: 1024}, "444.namd")),
		storeKey(Scale{Warmup: 1, Measured: 4_000}, canonicalKey(Variant{Policy: sim.PolicyTPRAC, NRH: 1024}, "433.milc")),
		storeKey(Scale{Warmup: 2_000, Measured: 1}, canonicalKey(Variant{Policy: sim.PolicyTPRAC, NRH: 1024}, "433.milc")),
	}
	seen := map[string]bool{base: true}
	for _, k := range distinct {
		if seen[k] {
			t.Errorf("key collision: %s", k)
		}
		seen[k] = true
	}
	// Scheduling and clocking knobs never reach the key.
	perCycle := scale
	perCycle.PerCycle, perCycle.Workers, perCycle.Serial = true, 3, true
	if storeKey(perCycle, canonicalKey(Variant{Policy: sim.PolicyTPRAC, NRH: 1024}, "433.milc")) != base {
		t.Error("scheduling/clocking knobs split the key")
	}
}

// TestShardMergeBitIdentical is the sharding contract: two shard
// sessions execute disjoint halves of the grid, and merging their result
// files reproduces the unsharded figures byte-for-byte with zero new
// simulations.
func TestShardMergeBitIdentical(t *testing.T) {
	reference := NewRunner(storeScale())
	want, err := reference.Fig12()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var files []string
	var executed int64
	for i := 0; i < 2; i++ {
		sp := shard.Spec{Index: i, Count: 2}
		sess := NewRunnerWith(storeScale(), SessionOptions{Shard: sp})
		if _, err := sess.Fig12(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		path := filepath.Join(dir, sp.String()[:1]+".shard")
		if _, err := sess.ExportShard(path); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
		executed += sess.Executed()
	}
	if executed != reference.Executed() {
		t.Errorf("shards executed %d runs total, unsharded executed %d (duplicate or missing work)",
			executed, reference.Executed())
	}

	merge := NewRunnerWith(storeScale(), SessionOptions{})
	imported, err := merge.ImportShards(files...)
	if err != nil {
		t.Fatal(err)
	}
	if int64(imported) != executed {
		t.Errorf("imported %d runs, shards executed %d", imported, executed)
	}
	got, err := merge.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if n := merge.Executed(); n != 0 {
		t.Errorf("merge executed %d simulations, want 0", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged result differs:\n got %+v\nwant %+v", got, want)
	}
	if got.Render() != want.Render() || got.CSV() != want.CSV() {
		t.Error("merged render/CSV not byte-identical to unsharded run")
	}
}

// TestValidationModesBypassStore: -differential and -percycle exist to
// actually execute simulations (comparing clockings, forcing the
// reference model); a warm store must not serve their results and
// silently validate nothing, and their sessions write nothing to it.
func TestValidationModesBypassStore(t *testing.T) {
	st := openStore(t)
	cold := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	if _, err := cold.Fig12(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"differential", "percycle"} {
		before := st.Stats()
		scale := storeScale()
		if mode == "differential" {
			scale.Differential = true
		} else {
			scale.PerCycle = true
		}
		sess := NewRunnerWith(scale, SessionOptions{Store: st})
		if _, err := sess.Fig12(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if n := sess.Executed(); n == 0 {
			t.Errorf("%s mode served from the warm store: 0 simulations executed", mode)
		}
		after := st.Stats()
		if hits := after.Hits - before.Hits; hits != 0 {
			t.Errorf("%s mode took %d store hits", mode, hits)
		}
		if writes := after.Writes - before.Writes; writes != 0 {
			t.Errorf("%s mode made %d store writes", mode, writes)
		}
	}
}

// TestValidationModesBypassJournal: the run store is the sessions'
// redo log, so an interrupted -differential or -percycle session must
// leave nothing in it for the next session to resume. Starting from a
// cold store, each validation session writes nothing, and a plain
// session that follows executes the full grid, exactly as over an
// empty store.
func TestValidationModesBypassJournal(t *testing.T) {
	fresh := NewRunnerWith(storeScale(), SessionOptions{Store: openStore(t)})
	if _, err := fresh.Fig12(); err != nil {
		t.Fatal(err)
	}
	want := fresh.Executed()
	if want == 0 {
		t.Fatal("plain session over an empty store executed nothing")
	}
	for _, mode := range []string{"differential", "percycle"} {
		st := openStore(t)
		scale := storeScale()
		if mode == "differential" {
			scale.Differential = true
		} else {
			scale.PerCycle = true
		}
		sess := NewRunnerWith(scale, SessionOptions{Store: st})
		if _, err := sess.Fig12(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if sess.Executed() == 0 {
			t.Fatalf("%s session executed nothing", mode)
		}
		if s := st.Stats(); s.Writes != 0 || s.Hits != 0 {
			t.Errorf("%s session touched the store: %d writes, %d hits", mode, s.Writes, s.Hits)
		}
		next := NewRunnerWith(storeScale(), SessionOptions{Store: st})
		if _, err := next.Fig12(); err != nil {
			t.Fatalf("after %s: %v", mode, err)
		}
		if got := next.Executed(); got != want {
			t.Errorf("after a %s session, a plain session executed %d runs, want the full grid's %d", mode, got, want)
		}
	}
}

// TestShardExportIncludesStoreHits: a shard session running against a
// warm store executes nothing, but its shard file must still hold every
// owned run — a warm store makes the simulation free, it must not make
// the run vanish from the merge.
func TestShardExportIncludesStoreHits(t *testing.T) {
	st := openStore(t)
	cold := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	if _, err := cold.Fig12(); err != nil {
		t.Fatal(err)
	}

	sp := shard.Spec{Index: 0, Count: 2}
	warmShard := NewRunnerWith(storeScale(), SessionOptions{Store: st, Shard: sp})
	if _, err := warmShard.Fig12(); err != nil {
		t.Fatal(err)
	}
	if n := warmShard.Executed(); n != 0 {
		t.Fatalf("warm shard executed %d runs", n)
	}
	path := filepath.Join(t.TempDir(), "warm.shard")
	if _, err := warmShard.ExportShard(path); err != nil {
		t.Fatal(err)
	}

	coldShard := NewRunnerWith(storeScale(), SessionOptions{Shard: sp})
	if _, err := coldShard.Fig12(); err != nil {
		t.Fatal(err)
	}
	merge := NewRunnerWith(storeScale(), SessionOptions{})
	n, err := merge.ImportShards(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != coldShard.Executed() {
		t.Errorf("warm shard exported %d runs, cold shard owns %d", n, coldShard.Executed())
	}
}

// TestImportShardsRejectsScaleMismatch: a shard built at different
// instruction budgets holds keys this session would never request;
// merging it must error instead of silently re-simulating the grid.
func TestImportShardsRejectsScaleMismatch(t *testing.T) {
	sp := shard.Spec{Index: 0, Count: 1}
	other := storeScale()
	other.Measured *= 2
	sess := NewRunnerWith(other, SessionOptions{Shard: sp})
	if _, err := sess.Fig12(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other-scale.shard")
	if _, err := sess.ExportShard(path); err != nil {
		t.Fatal(err)
	}
	merge := NewRunnerWith(storeScale(), SessionOptions{})
	if _, err := merge.ImportShards(path); err == nil {
		t.Error("scale-mismatched shard merged silently")
	} else if !strings.Contains(err.Error(), "-scale") {
		t.Errorf("unhelpful mismatch error: %v", err)
	}
}

// TestShardMergeIntoStore: merging with a store attached writes the
// imported runs through, so a later store-only session is fully warm.
func TestShardMergeIntoStore(t *testing.T) {
	dir := t.TempDir()
	sp := shard.Spec{Index: 0, Count: 1}
	sess := NewRunnerWith(storeScale(), SessionOptions{Shard: sp})
	if _, err := sess.Fig12(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "all.shard")
	if _, err := sess.ExportShard(path); err != nil {
		t.Fatal(err)
	}

	st := openStore(t)
	merge := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	if _, err := merge.ImportShards(path); err != nil {
		t.Fatal(err)
	}
	warm := NewRunnerWith(storeScale(), SessionOptions{Store: st})
	if _, err := warm.Fig12(); err != nil {
		t.Fatal(err)
	}
	if n := warm.Executed(); n != 0 {
		t.Errorf("store-only session after merge executed %d, want 0", n)
	}
}

// TestMemoRoundTrip: whole-experiment memoization returns the cached
// result on the second call and recomputes when the store is nil.
func TestMemoRoundTrip(t *testing.T) {
	st := openStore(t)
	calls := 0
	fn := func() (Fig3Result, error) {
		calls++
		return Fig3Result{Rows: []Fig3Row{{NMit: 1, SpikeNS: 1.0 / 3.0, ABOs: 7}}, Duration: 42}, nil
	}
	first, err := Memo(st, "fig3/test", fn)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Memo(st, "fig3/test", fn)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("memoized result differs: %+v vs %+v", first, second)
	}
	if _, err := Memo(nil, "fig3/test", fn); err != nil || calls != 2 {
		t.Errorf("nil store should run fn directly (calls=%d, err=%v)", calls, err)
	}
}

// TestImportShardsRejectsEmptyPath: an empty path in a shard file list
// must fail as an empty path, not as a confusing open("").
func TestImportShardsRejectsEmptyPath(t *testing.T) {
	sess := NewRunner(storeScale())
	if _, err := sess.ImportShards(""); err == nil || !strings.Contains(err.Error(), "empty shard file path") {
		t.Errorf("ImportShards(\"\") = %v, want empty-path error", err)
	}
}

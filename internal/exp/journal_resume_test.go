package exp

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"pracsim/internal/exp/journal"
	"pracsim/internal/sim"
)

// journaledScale matches the journal-resume tests' session shape.
func journaledScale() Scale { return storeScale() }

// TestJournalResumeStoreOffExecutesNothing is the session half of the
// crash-recovery contract: with no store at all, a second session over
// the same journal replays every run — zero simulations, byte-identical
// figures.
func TestJournalResumeStoreOffExecutesNothing(t *testing.T) {
	path := t.TempDir() + "/session.journal"
	jopts := journal.Options{Schema: sim.SchemaVersion, Fingerprint: journal.Fingerprint("session-resume")}

	jl1, rec, err := journal.Open(path, jopts)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Fresh {
		t.Fatalf("fresh journal reported recovery: %+v", rec)
	}
	cold := NewRunnerWith(journaledScale(), SessionOptions{Journal: jl1})
	first, err := cold.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executed() == 0 {
		t.Fatal("cold session executed nothing")
	}
	if err := jl1.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, rec2, err := journal.Open(path, jopts)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if int64(rec2.Runs) != cold.Executed() {
		t.Errorf("journal replayed %d runs, cold session executed %d", rec2.Runs, cold.Executed())
	}
	warm := NewRunnerWith(journaledScale(), SessionOptions{Journal: jl2})
	second, err := warm.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Executed(); n != 0 {
		t.Errorf("resumed session executed %d simulations, want 0", n)
	}
	if hits := warm.JournalStats().ResumeHits; hits == 0 {
		t.Error("resumed session reported no journal resume hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed results differ:\ncold: %+v\nwarm: %+v", first, second)
	}
	if first.Render() != second.Render() || first.CSV() != second.CSV() {
		t.Error("resumed render/CSV not byte-identical")
	}
	if !strings.Contains(warm.TelemetryReport(0), "journal: ") {
		t.Error("telemetry report missing the journal line")
	}
}

// TestJournalTornTailPartialResume: a journal cut mid-frame (the
// crash-during-append case) resumes from its valid prefix — the second
// session re-executes exactly the lost runs and nothing else, and the
// figures still match.
func TestJournalTornTailPartialResume(t *testing.T) {
	path := t.TempDir() + "/session.journal"
	jopts := journal.Options{Schema: sim.SchemaVersion, Fingerprint: journal.Fingerprint("torn-resume")}

	jl1, _, err := journal.Open(path, jopts)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewRunnerWith(journaledScale(), SessionOptions{Journal: jl1})
	first, err := cold.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	executed := cold.Executed()
	if err := jl1.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the file mid-way through its last frame: the tail record is
	// torn, everything before it intact.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	jl2, rec, err := journal.Open(path, jopts)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if rec.TruncatedBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	lost := executed - int64(rec.Runs)
	if lost <= 0 {
		t.Fatalf("tear lost no runs (replayed %d of %d); the test proved nothing", rec.Runs, executed)
	}
	warm := NewRunnerWith(journaledScale(), SessionOptions{Journal: jl2})
	second, err := warm.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Executed(); n != lost {
		t.Errorf("resumed session executed %d simulations, want exactly the %d torn-off runs", n, lost)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("partial resume changed the figures")
	}
}

// TestValidationModesBypassJournal: differential and per-cycle sessions
// never read stale journal entries nor pollute the journal with
// non-warmable payloads.
func TestValidationModesBypassJournal(t *testing.T) {
	path := t.TempDir() + "/session.journal"
	jopts := journal.Options{Schema: sim.SchemaVersion, Fingerprint: journal.Fingerprint("bypass")}
	jl, _, err := journal.Open(path, jopts)
	if err != nil {
		t.Fatal(err)
	}
	scale := journaledScale()
	scale.Differential = true
	sess := NewRunnerWith(scale, SessionOptions{Journal: jl})
	if _, err := sess.Fig12(); err != nil {
		t.Fatal(err)
	}
	if sess.Executed() == 0 {
		t.Fatal("differential session executed nothing")
	}
	st := sess.JournalStats()
	if st.Appended != 0 || st.ResumeHits != 0 {
		t.Errorf("differential session touched the journal: %+v", st)
	}
	jl.Close()
}

//go:build unix

package exp

import (
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
)

// sessionEnv names the store directory when this test binary is re-exec'd
// as a session to be SIGKILLed (see TestMain).
const sessionEnv = "PRACSIM_SESSION_TEST_STORE"

// killAfterPuts is how many runs the re-exec'd session stores before
// every further put stalls, so the kill lands mid-grid.
const killAfterPuts = 2

func TestMain(m *testing.M) {
	if dir := os.Getenv(sessionEnv); dir != "" {
		os.Exit(sessionChildMain(dir))
	}
	os.Exit(m.Run())
}

// stallAfterPuts lets the first killAfterPuts disk writes through (a
// zero delay) and then stalls every further write for an hour, so the
// kill lands mid-grid.
var stallAfterPuts = fmt.Sprintf("%[1]s:delay=0sx%[2]d;%[1]s:delay=1h", fault.StoreDiskPut, killAfterPuts)

// sessionChildMain runs Fig12 at storeScale over the store at dir, the
// way `tpracsim -exp fig12 -store DIR` does, until it is killed.
func sessionChildMain(dir string) int {
	p, err := fault.Parse(stallAfterPuts)
	if err != nil {
		return 2
	}
	fault.Enable(p)
	st, err := store.Open(dir)
	if err != nil {
		return 2
	}
	if _, err := NewRunnerWith(storeScale(), SessionOptions{Store: st}).Run("fig12"); err != nil {
		return 1
	}
	return 0
}

// TestSessionSIGKILLResumesFromStore is the session half of the
// crash-resume contract: a session SIGKILLed mid-grid leaves every run
// it finished in the store, a rerun over that store executes exactly
// the grid's unstored runs with a byte-identical CSV, and a third run
// executes nothing.
func TestSessionSIGKILLResumesFromStore(t *testing.T) {
	serial := storeScale()
	serial.Serial = true
	ref := NewRunner(serial)
	want, err := ref.Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	keys := ref.Executed()

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), sessionEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if n, _, _ := d.Footprint(); n >= killAfterPuts {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("session never stored %d runs", killAfterPuts)
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	infos, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	stored := int64(len(infos))
	if stored == 0 || stored >= keys {
		t.Fatalf("store holds %d of %d runs at restart; the kill proved nothing", stored, keys)
	}

	for _, wantExec := range []int64{keys - stored, 0} {
		sess := NewRunnerWith(storeScale(), SessionOptions{Store: store.NewStore(d)})
		got, err := sess.Run("fig12")
		if err != nil {
			t.Fatal(err)
		}
		if n := sess.Executed(); n != wantExec {
			t.Errorf("rerun executed %d simulations, want %d (%d grid runs, %d stored)", n, wantExec, keys, stored)
		}
		if got.CSV() != want.CSV() {
			t.Error("resumed CSV not byte-identical to a serial run")
		}
	}
}

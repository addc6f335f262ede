//go:build linux

package service

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"pracsim/internal/exp/store"
)

// killDriverAfterAcks runs this test binary as a real dispatch driver
// over a fresh work directory, its children on storeDir, and SIGKILLs it
// once its queue journal holds one ack of an item that executed runs —
// no drain, no signal handler. Its children die with it (the kernel's
// parent-death signal). It returns the driver's output.
func killDriverAfterAcks(t *testing.T, storeDir, gate string) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		driverEnv+"="+dir+string(filepath.ListSeparator)+storeDir,
		templateEnv+"="+gatedTemplate(gate), gateEnv+"="+gate)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitExecAcks(t, dir, 1)
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait()
	return out.String()
}

// TestFleetDriverSIGKILLResumeBitIdentical: a real driver is SIGKILLed
// after its first executed item; a rerun over the same store executes
// only the runs that were not stored and finishes byte-identically.
func TestFleetDriverSIGKILLResumeBitIdentical(t *testing.T) {
	storeDir, gate := t.TempDir(), filepath.Join(t.TempDir(), "gate")
	out := killDriverAfterAcks(t, storeDir, gate)
	resumeFromStore(t, storeDir, gate, out)
}

// TestFleetDriverSIGKILLTornStoreResume: the kill also leaves torn
// store writes behind — the half-written temp file of a put that never
// reached its rename, and an entry cut short the way an unsynced put can
// be after a machine crash. The rerun neither counts nor serves either:
// it re-executes the torn entry's run along with the unstored ones, and
// the result stays byte-identical.
func TestFleetDriverSIGKILLTornStoreResume(t *testing.T) {
	storeDir, gate := t.TempDir(), filepath.Join(t.TempDir(), "gate")
	out := killDriverAfterAcks(t, storeDir, gate)
	frame := store.EncodeFrame("pracsim/run/torn", bytes.Repeat([]byte("x"), 256))
	if err := os.WriteFile(filepath.Join(storeDir, "put-torn.tmp"), frame[:len(frame)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(storeDir, "*.run"))
	if len(entries) == 0 {
		t.Fatalf("killed driver stored nothing:\n%s", out)
	}
	fi, err := os.Stat(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(entries[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	resumeFromStore(t, storeDir, gate, out)
}

// TestFleetDriverKillStormResumesBitIdentical: two drivers in a row are
// SIGKILLed, each after executing one more item on top of what the store
// already held; the final rerun executes only what is still unstored.
func TestFleetDriverKillStormResumesBitIdentical(t *testing.T) {
	storeDir, gate := t.TempDir(), filepath.Join(t.TempDir(), "gate")
	out1 := killDriverAfterAcks(t, storeDir, gate)
	first := storedRuns(t, storeDir)
	out2 := killDriverAfterAcks(t, storeDir, gate)
	if second := storedRuns(t, storeDir); second <= first {
		t.Errorf("second driver stored nothing new (%d -> %d runs):\n%s", first, second, out2)
	}
	resumeFromStore(t, storeDir, gate, out1, out2)
}

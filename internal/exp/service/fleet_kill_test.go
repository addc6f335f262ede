//go:build linux

package service

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// killDriverAfterAcks runs this test binary as a real dispatch driver
// over dir and SIGKILLs it once the queue journal holds acks acks — no
// drain, no checkpoint call. Its children die with it (the kernel's
// parent-death signal). It returns the driver's output.
func killDriverAfterAcks(t *testing.T, dir, gate string, acks int) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), driverEnv+"="+dir, templateEnv+"="+gatedTemplate(gate), gateEnv+"="+gate)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitAcks(t, dir, acks)
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait()
	return out.String()
}

// resumeKilledDriver reruns the killed driver's fleet in process with the
// gate open and pins the resume contract: the journaled items are
// adopted, and the finished job is byte-identical to a serial run with
// every item acked exactly once across all driver lifetimes.
func resumeKilledDriver(t *testing.T, dir, gate string, acked int, driverLogs ...string) {
	t.Helper()
	if err := os.WriteFile(gate, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(gateEnv, gate)
	st, files, logs, err := runFleet(t, context.Background(), dir, gatedTemplate(gate))
	if err != nil {
		t.Fatalf("resumed fleet: %v\nlog:\n%s\ndriver output:\n%s", err, logs, strings.Join(driverLogs, "\n"))
	}
	if want := "adopted from journal (" + string(rune('0'+acked)) + "/3 item(s) acked"; !strings.Contains(logs, want) {
		t.Errorf("resumed fleet log missing %q:\n%s", want, logs)
	}
	checkFleetResult(t, dir, st, files, append(driverLogs, logs)...)

	// A third run finds the job done: no child runs, nothing executes.
	st3, files3, logs3, err := runFleet(t, context.Background(), dir, gatedTemplate(gate))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(logs3, "launch") {
		t.Errorf("third run spawned children:\n%s", logs3)
	}
	checkFleetResult(t, dir, st3, files3, append(driverLogs, logs, logs3)...)
}

// TestFleetDriverSIGKILLResumeBitIdentical: a real driver is SIGKILLed
// after its first acked item, and a rerun over the same directory
// adopts that item and finishes the grid byte-identically.
func TestFleetDriverSIGKILLResumeBitIdentical(t *testing.T) {
	dir, gate := t.TempDir(), filepath.Join(t.TempDir(), "gate")
	out := killDriverAfterAcks(t, dir, gate, 1)
	resumeKilledDriver(t, dir, gate, 1, out)
}

// TestFleetDriverSIGKILLTornJournalResume: the kill also tears the queue
// journal mid-frame; recovery truncates the tear and the resume is
// still byte-identical with no acked item re-executed.
func TestFleetDriverSIGKILLTornJournalResume(t *testing.T) {
	dir, gate := t.TempDir(), filepath.Join(t.TempDir(), "gate")
	out := killDriverAfterAcks(t, dir, gate, 1)
	f, err := os.OpenFile(filepath.Join(dir, "queue.journal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{120, 0, 0, 0, '{', '"', 't', '"', ':'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	resumeKilledDriver(t, dir, gate, 1, out)
}

// TestFleetDriverKillStormResumesBitIdentical: the driver is SIGKILLed
// twice, after one and then two acked items; each restart adopts what
// the last one acked, and the final resume is byte-identical.
func TestFleetDriverKillStormResumesBitIdentical(t *testing.T) {
	dir, gate := t.TempDir(), filepath.Join(t.TempDir(), "gate")
	out1 := killDriverAfterAcks(t, dir, gate, 1)
	out2 := killDriverAfterAcks(t, dir, gate, 2)
	if !strings.Contains(out2, "adopted from journal (1/3 item(s) acked") {
		t.Errorf("second driver did not adopt the first one's item:\n%s", out2)
	}
	resumeKilledDriver(t, dir, gate, 2, out1, out2)
}

//go:build unix

package service

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
	"pracsim/internal/retry"
)

// The fleet tests re-exec this test binary: as a pull child (childEnv)
// running RunWorker at the tiny scale, or as a whole dispatch driver
// (driverEnv lists its work directory and its children's store) that a
// test can SIGKILL.
const (
	childEnv    = "PRACSIM_FLEET_TEST_CHILD"
	driverEnv   = "PRACSIM_FLEET_TEST_DRIVER"
	templateEnv = "PRACSIM_FLEET_TEST_TEMPLATE"
	// gateEnv names a file: until it exists, a child stalls right after
	// delivering an item it executed runs for, so a test can stop the
	// fleet with work reliably left over.
	gateEnv = "PRACSIM_FLEET_TEST_GATE"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(fleetChildMain())
	}
	if dirs := filepath.SplitList(os.Getenv(driverEnv)); len(dirs) == 2 {
		os.Exit(fleetDriverMain(dirs[0], dirs[1]))
	}
	os.Exit(m.Run())
}

// fleetChildMain is a pull child: the `-pull URL -pull-token T [-store
// DIR]` slice of tpracsim, serving leases until killed.
func fleetChildMain() int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	url := fs.String("pull", "", "")
	token := fs.String("pull-token", "", "")
	dir := fs.String("store", "off", "")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var st *store.Store
	if *dir != "off" {
		var err error
		if st, err = store.Open(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			return 2
		}
	}
	var logw io.Writer = os.Stderr
	if gate := os.Getenv(gateEnv); gate != "" {
		logw = gateWriter(gate)
	}
	RunWorker(context.Background(), WorkerOptions{
		URL: *url, Token: *token, Store: st, Workers: 1,
		Poll: retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Log:  log.New(logw, "", 0),
	})
	return 0
}

// gateWriter passes worker log lines to stderr and blocks on the
// "delivered" line of an item that executed runs until its gate file
// exists. Items served wholly from the store pass straight through.
type gateWriter string

func (g gateWriter) Write(p []byte) (int, error) {
	os.Stderr.Write(p)
	if bytes.Contains(p, []byte("delivered")) && !bytes.Contains(p, []byte(", 0 executed)")) {
		for {
			if _, err := os.Stat(string(g)); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return len(p), nil
}

// fleetDriverMain runs one dispatch fleet over work dir with its
// children on storeDir, the way tpracsim -dispatch 3 -store DIR does,
// logging to stdout.
func fleetDriverMain(dir, storeDir string) int {
	os.Setenv(childEnv, "1")
	_, _, err := RunFleet(context.Background(), fleetOpts(dir, storeDir, os.Getenv(templateEnv), os.Stdout))
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver:", err)
		return 1
	}
	return 0
}

// fleetOpts is the tiny fig12 grid on 3 children re-execing this binary,
// with their run store at storeDir ("" = store off).
func fleetOpts(dir, storeDir, template string, logw io.Writer) FleetOptions {
	argv := []string{os.Args[0]}
	if storeDir != "" {
		argv = append(argv, "-store", storeDir)
	}
	return FleetOptions{
		Exps: []string{"fig12"}, Scale: "tiny", Scales: testScales(), Shards: 3,
		Dir: dir, Argv: argv, Template: template, Log: logw,
	}
}

// syncBuffer is a bytes.Buffer safe to read while a fleet writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// runFleet runs the tiny grid as an in-process driver with this binary
// as the children, their store at storeDir ("" = off).
func runFleet(t *testing.T, ctx context.Context, dir, storeDir, template string) (JobStatus, []string, string, error) {
	t.Helper()
	t.Setenv(childEnv, "1")
	var buf syncBuffer
	st, files, err := RunFleet(ctx, fleetOpts(dir, storeDir, template, &buf))
	return st, files, buf.String(), err
}

var ackedLine = regexp.MustCompile(`job (j\d+) item (\d+/\d+) acked`)

// checkFleetResult pins the fleet contract on a finished job: the job
// directory under dir holds exactly one ack per item and the driver log
// shows no item acked twice (so no acked item was re-executed), children
// executed exactly wantExec runs, and the merged shard files render
// Fig12 byte-identical to a serial run without executing anything.
func checkFleetResult(t *testing.T, dir string, st JobStatus, files []string, wantExec int64, logs string) {
	t.Helper()
	wantCSV, _ := reference(t)
	if st.State != StateDone || st.Acked != st.Items {
		t.Fatalf("job %+v, want done with every item acked", st)
	}
	recorded := map[string]int{}
	for _, a := range shardAcks(t, dir, st.ID) {
		recorded[a.item]++
	}
	logged := map[string]int{}
	for _, m := range ackedLine.FindAllStringSubmatch(logs, -1) {
		if m[1] == st.ID {
			logged[m[2]]++
		}
	}
	if len(recorded) != st.Items {
		t.Errorf("job directory holds acks for %d item(s), job has %d: %v", len(recorded), st.Items, recorded)
	}
	for item := range recorded {
		if recorded[item] != 1 || logged[item] > 1 {
			t.Errorf("item %s acked %d time(s) in the job directory and %d in the logs, want once", item, recorded[item], logged[item])
		}
	}
	if st.Executed != wantExec || st.FinalizeExecuted != 0 {
		t.Errorf("job executed %d+%d simulations, want exactly %d+0", st.Executed, st.FinalizeExecuted, wantExec)
	}
	merge := exp.NewRunner(testScales()["tiny"])
	if _, err := merge.ImportShards(files...); err != nil {
		t.Fatal(err)
	}
	got, err := merge.Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	if n := merge.Executed(); n != 0 {
		t.Errorf("merged session executed %d simulations, want 0", n)
	}
	if got.CSV() != wantCSV {
		t.Error("fleet result not byte-identical to the serial run")
	}
}

// TestFleetReexecPool drives the default path end to end: with no
// template the fleet re-execs this binary directly as every child, and a
// clean run costs no respawn.
func TestFleetReexecPool(t *testing.T) {
	dir := t.TempDir()
	st, files, logs, err := runFleet(t, context.Background(), dir, "", "")
	if err != nil {
		t.Fatalf("fleet: %v\nlog:\n%s", err, logs)
	}
	if strings.Contains(logs, "respawn") || strings.Contains(logs, "child exited") {
		t.Errorf("clean fleet respawned a child:\n%s", logs)
	}
	if n := strings.Count(logs, "launch 1"); n != 3 {
		t.Errorf("fleet launched %d child(ren), want 3\nlog:\n%s", n, logs)
	}
	checkFleetResult(t, dir, st, files, gridRuns(t), logs)
}

// TestFleetChildKilledRespawnsAndMergesBitIdentical: slot 1's first
// child dies by SIGKILL; the slot respawns it and the merged result is
// byte-identical to a serial run.
func TestFleetChildKilledRespawnsAndMergesBitIdentical(t *testing.T) {
	mark := filepath.Join(t.TempDir(), "killed-once")
	tmpl := fmt.Sprintf("if [ {slot} = 1 ] && [ ! -e %s ]; then : > %s; echo 'child lost' >&2; kill -KILL $$; fi; exec {args}", mark, mark)
	dir := t.TempDir()
	st, files, logs, err := runFleet(t, context.Background(), dir, "", tmpl)
	if err != nil {
		t.Fatalf("fleet: %v\nlog:\n%s", err, logs)
	}
	if !strings.Contains(logs, "slot 1 child exited") || !strings.Contains(logs, "respawn 1/3") {
		t.Errorf("respawn not visible in the fleet log:\n%s", logs)
	}
	checkFleetResult(t, dir, st, files, gridRuns(t), logs)
}

// TestFleetBudgetExhaustedFailsWithStderr: when every slot's child keeps
// dying, the fleet fails once the respawns run out and carries the last
// child's stderr.
func TestFleetBudgetExhaustedFailsWithStderr(t *testing.T) {
	tmpl := "echo 'trace catalog missing on this host' >&2; exit 7"
	_, _, logs, err := runFleet(t, context.Background(), t.TempDir(), "", tmpl)
	if err == nil {
		t.Fatalf("a fleet whose children all die succeeded\nlog:\n%s", logs)
	}
	for _, want := range []string{"exited 4 time(s)", "trace catalog missing on this host"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fleet error %q missing %q", err, want)
		}
	}
}

// TestFleetOneSlotExhaustedOthersFinish: a slot whose child dies on
// every launch runs out of respawns without failing the fleet; the
// healthy slots finish the job, and the dead slot's stderr is in the log.
func TestFleetOneSlotExhaustedOthersFinish(t *testing.T) {
	tmpl := "if [ {slot} = 1 ]; then echo 'trace catalog missing on this host' >&2; exit 7; fi; exec {args}"
	dir := t.TempDir()
	st, files, logs, err := runFleet(t, context.Background(), dir, "", tmpl)
	if err != nil {
		t.Fatalf("fleet with one dead slot: %v\nlog:\n%s", err, logs)
	}
	for _, want := range []string{"slot 1 child exited", "out of respawns", "[slot 1] trace catalog missing on this host"} {
		if !strings.Contains(logs, want) {
			t.Errorf("fleet log missing %q:\n%s", want, logs)
		}
	}
	checkFleetResult(t, dir, st, files, gridRuns(t), logs)
}

// TestFleetStalledChildDoesNotBlockAndIsReaped: a child that stalls
// before leasing anything holds no lease, so the others finish the job;
// on return the stalled child's whole process group is gone.
func TestFleetStalledChildDoesNotBlockAndIsReaped(t *testing.T) {
	pidFile := filepath.Join(t.TempDir(), "stalled.pid")
	tmpl := fmt.Sprintf("if [ {slot} = 1 ]; then sleep 300 & echo $! > %s.tmp && mv %s.tmp %s; wait; fi; exec {args}", pidFile, pidFile, pidFile)
	dir := t.TempDir()
	st, files, logs, err := runFleet(t, context.Background(), dir, "", tmpl)
	if err != nil {
		t.Fatalf("fleet: %v\nlog:\n%s", err, logs)
	}
	checkFleetResult(t, dir, st, files, gridRuns(t), logs)
	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatalf("stalled child never recorded its grandchild: %v", err)
	}
	var pid int
	fmt.Sscan(string(raw), &pid)
	waitReaped(t, pid)
}

// TestFleetInterruptedResumeBitIdentical: a fleet cancelled with work
// left leaves its finished runs in the children's store; a second fleet
// over a fresh work directory and the same store executes only the
// runs that were not stored and finishes byte-identically.
func TestFleetInterruptedResumeBitIdentical(t *testing.T) {
	storeDir, gate := t.TempDir(), filepath.Join(t.TempDir(), "gate")
	t.Setenv(gateEnv, gate)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		waitExecAcks(t, dir, 1)
		cancel()
	}()
	_, _, logs, err := runFleet(t, ctx, dir, storeDir, gatedTemplate(gate))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted fleet returned %v\nlog:\n%s", err, logs)
	}
	resumeFromStore(t, storeDir, gate, logs)
}

// resumeFromStore reruns an interrupted fleet's grid over storeDir with
// the gate open, each run on a fresh work directory, and pins the
// store-resume contract: the rerun executes exactly the grid's runs
// that were not stored at restart, its result is byte-identical to a
// serial run, and a third run executes nothing.
func resumeFromStore(t *testing.T, storeDir, gate string, priorLogs ...string) {
	t.Helper()
	if err := os.WriteFile(gate, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(gateEnv, gate)
	stored, keys := storedRuns(t, storeDir), gridRuns(t)
	if stored == 0 || stored >= keys {
		t.Fatalf("store holds %d of %d runs at restart; the interruption proved nothing\nprior logs:\n%s",
			stored, keys, strings.Join(priorLogs, "\n"))
	}
	t.Logf("store holds %d of %d runs at restart", stored, keys)
	for _, want := range []int64{keys - stored, 0} {
		dir := t.TempDir()
		st, files, logs, err := runFleet(t, context.Background(), dir, storeDir, gatedTemplate(gate))
		if err != nil {
			t.Fatalf("resumed fleet: %v\nlog:\n%s\nprior logs:\n%s", err, logs, strings.Join(priorLogs, "\n"))
		}
		checkFleetResult(t, dir, st, files, want, logs)
	}
}

// storedRuns counts the valid entries in the run store at dir.
func storedRuns(t *testing.T, dir string) int64 {
	t.Helper()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(infos))
}

// gridRuns is the tiny grid's run-key count: what a cold fleet executes.
func gridRuns(t *testing.T) int64 {
	_, n := reference(t)
	return n
}

// TestFleetKillStormConverges: the dispatch.worker failpoint SIGKILLs
// two children while they start up; the slots respawn them and the
// result stays byte-identical.
func TestFleetKillStormConverges(t *testing.T) {
	// Children take 300ms to start, so each 100ms kill lands on a live
	// child and the x2 cap makes the storm cost exactly two respawns.
	p, err := fault.Parse("seed=5;dispatch.worker:kill=100msx2")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	t.Cleanup(fault.Disable)
	dir := t.TempDir()
	st, files, logs, err := runFleet(t, context.Background(), dir, "", "sleep 0.3; exec {args}")
	if err != nil {
		t.Fatalf("fleet under kill storm: %v\nlog:\n%s", err, logs)
	}
	if n := fault.Fired(); n != 2 {
		t.Errorf("fault.Fired() = %d, want 2", n)
	}
	if n := strings.Count(logs, "respawn "); n != 2 {
		t.Errorf("kill storm (x2) cost %d respawns, want 2\nlog:\n%s", n, logs)
	}
	checkFleetResult(t, dir, st, files, gridRuns(t), logs)
}

// gatedTemplate keeps every slot but 0 asleep until gate exists, so a
// fleet makes progress one item at a time.
func gatedTemplate(gate string) string {
	return fmt.Sprintf("if [ {slot} != 0 ] && [ ! -e %s ]; then exec sleep 300; fi; exec {args}", gate)
}

// recordedAck is one ack in a job directory: the item and the
// simulations its worker executed, both read off the shard file's name.
type recordedAck struct {
	item     string
	executed int64
}

// shardAcks lists the acks recorded under the fleet work directory dir
// for job id ("*" for every job).
func shardAcks(t *testing.T, dir, id string) []recordedAck {
	files, err := filepath.Glob(filepath.Join(dir, "jobs", id, shardsDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var acks []recordedAck
	for _, f := range files {
		if sp, executed, ok := parseAckName(filepath.Base(f)); ok {
			acks = append(acks, recordedAck{sp.String(), executed})
		}
	}
	return acks
}

// waitExecAcks blocks until the job directory under dir holds n acks of
// items that executed runs.
func waitExecAcks(t *testing.T, dir string, n int) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		executing := 0
		for _, a := range shardAcks(t, dir, "*") {
			if a.executed > 0 {
				executing++
			}
		}
		if executing >= n {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("job directory never reached %d executing ack(s)", n)
}

// waitReaped fails unless pid is gone within a few seconds.
func waitReaped(t *testing.T, pid int) {
	t.Helper()
	if pid <= 0 {
		t.Fatalf("bad pid %d", pid)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := syscall.Kill(pid, 0)
		if errors.Is(err, syscall.ESRCH) {
			return
		}
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("process %d survived the fleet (kill(0) = %v)", pid, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestExpandTemplate: {args} is the shell-quoted child command, and
// {slot} and {port} expand to integers.
func TestExpandTemplate(t *testing.T) {
	argv := []string{"/bin/tpracsim", "-store", "/tmp/my store", "-pull-token", "it's"}
	got := expandTemplate("ssh -R {port}:127.0.0.1:{port} build-{slot} exec {args}", argv, 2, 8460)
	want := `ssh -R 8460:127.0.0.1:8460 build-2 exec /bin/tpracsim -store '/tmp/my store' -pull-token 'it'\''s'`
	if got != want {
		t.Errorf("expandTemplate = %s\nwant             %s", got, want)
	}
}

// TestShellQuote: quoting must survive sh -c for the characters argv
// words actually contain.
func TestShellQuote(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		"":             "''",
		"with space":   "'with space'",
		"don't":        `'don'\''t'`,
		"$HOME;rm -rf": `'$HOME;rm -rf'`,
	}
	for in, want := range cases {
		if got := shellQuote(in); got != want {
			t.Errorf("shellQuote(%q) = %q, want %q", in, got, want)
		}
	}
}

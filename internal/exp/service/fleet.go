package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/fault"
)

// fleetTenant owns a fleet's job in its queue. Children authenticate
// with a random per-run bearer token.
const fleetTenant = "dispatch"

// fleetLeaseTTL is short so an item a killed child held re-leases within
// seconds.
const fleetLeaseTTL = 5 * time.Second

// fleetRespawns is how many times a slot relaunches a child that exited
// while the job was unfinished.
const fleetRespawns = 3

// stderrTailLines bounds the child stderr a fleet failure carries.
const stderrTailLines = 40

// ErrInterrupted reports a fleet cancelled through RunFleet's context.
// The fleet's queue does not survive it: a rerun resumes through the
// children's store, which holds every run a child finished.
var ErrInterrupted = errors.New("dispatch: interrupted")

// FleetOptions configures RunFleet.
type FleetOptions struct {
	// Exps and Scale name the grid in tpracsim's -exp/-scale grammar.
	Exps  []string
	Scale string
	// Scales overrides the scale table (tests inject tiny budgets); nil
	// means quick/full.
	Scales map[string]exp.Scale
	// Shards is N: the job's work items and the number of pull children.
	Shards int
	// Dir is the queue's per-run scratch directory (job directory, dedup
	// store, acked shard files). Required; the caller removes it after
	// the run. A rerun gets a fresh one: resume comes from the store the
	// children write (their -store in Argv), never from Dir.
	Dir string
	// Argv is the child command without the pull flags; RunFleet appends
	// `-pull URL -pull-token T`.
	Argv []string
	// Template, when non-empty, runs each child through `sh -c` with
	// {args} (the shell-quoted child command), {slot} and {port}
	// expanded. Templates should `exec` the command so kills reach it.
	Template string
	// Log receives the fleet's progress lines and every child's
	// slot-prefixed output; nil discards.
	Log io.Writer
}

// fleet is one RunFleet's shared state.
type fleet struct {
	opts FleetOptions
	argv []string // child command, pull flags included
	port int
	// log serializes every line: the fleet's, the queue's and the
	// children's output streams.
	log *log.Logger

	exhausted chan int // slots that used up their respawns

	mu       sync.Mutex
	lastTail []string // stderr tail of the child that exited last
}

// RunFleet runs a grid on an in-process pracsimd queue with N pull
// children: it serves the queue on loopback, submits the grid, spawns
// the children, respawns those that exit early, and waits for the job
// to finish. It returns the job's final status and its acked shard
// files, for the caller to merge. Children are killed on return.
func RunFleet(ctx context.Context, opts FleetOptions) (JobStatus, []string, error) {
	if opts.Shards < 1 {
		return JobStatus{}, nil, fmt.Errorf("dispatch: need at least 1 child, got %d", opts.Shards)
	}
	if opts.Template == "" && len(opts.Argv) == 0 {
		return JobStatus{}, nil, errors.New("dispatch: no child command (set Argv or Template)")
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	tok := make([]byte, 16)
	rand.Read(tok)
	token := hex.EncodeToString(tok)
	f := &fleet{
		opts:      opts,
		log:       log.New(opts.Log, "", 0),
		exhausted: make(chan int, opts.Shards),
	}
	svc, _, err := New(Options{
		Dir: opts.Dir, Tokens: token, LeaseTTL: fleetLeaseTTL,
		Scales: opts.Scales, Log: f.log,
	})
	if err != nil {
		return JobStatus{}, nil, err
	}
	defer svc.Close()
	//praclint:allow failpoint loopback listener for the fleet's own children; the queue and worker paths it serves fire queue.* failpoints
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return JobStatus{}, nil, fmt.Errorf("dispatch: %w", err)
	}
	hs := &http.Server{Handler: svc}
	//praclint:allow failpoint serving loop of the loopback listener above
	go hs.Serve(ln)
	defer hs.Close()
	svcCtx, stopSvc := context.WithCancel(context.Background())
	defer stopSvc()
	svc.Start(svcCtx)
	f.port = ln.Addr().(*net.TCPAddr).Port
	url := "http://127.0.0.1:" + strconv.Itoa(f.port)
	f.argv = append(slices.Clone(opts.Argv), "-pull", url, "-pull-token", token)

	st, err := svc.Submit(fleetTenant, GridSpec{Exps: opts.Exps, Scale: opts.Scale, Shards: opts.Shards})
	if err != nil {
		return JobStatus{}, nil, err
	}
	events, unsubscribe, _ := svc.queue.Subscribe(st.ID, fleetTenant)
	defer unsubscribe()

	childCtx, killChildren := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		killChildren()
		wg.Wait()
	}()
	f.log.Printf("dispatch: %d pull child(ren) on %s", opts.Shards, url)
	for slot := 0; slot < opts.Shards; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.runSlot(childCtx, slot)
		}()
	}

	start, deadSlots := time.Now(), 0
	for {
		select {
		case <-ctx.Done():
			killChildren()
			wg.Wait()
			cur, _ := svc.queue.Status(st.ID, fleetTenant)
			return cur, nil, fmt.Errorf("%w: %d/%d item(s) acked", ErrInterrupted, cur.Acked, cur.Items)
		case <-f.exhausted:
			if deadSlots++; deadSlots == opts.Shards {
				return st, nil, fmt.Errorf("dispatch: every child slot exited %d time(s) with job %s unfinished\nlast child stderr:\n%s",
					fleetRespawns+1, st.ID, f.tail())
			}
		case _, open := <-events:
			if open {
				continue
			}
			final, _ := svc.queue.Status(st.ID, fleetTenant)
			if final.State != StateDone {
				return final, nil, fmt.Errorf("dispatch: job %s %s: %s\nlast child stderr:\n%s", final.ID, final.State, final.Error, f.tail())
			}
			files := svc.queue.ackedFiles(final.ID)
			f.log.Printf("dispatch: job %s done in %.1fs: %d/%d item(s) acked, %d run(s) executed by children, %d at finalize",
				final.ID, time.Since(start).Seconds(), final.Acked, final.Items, final.Executed, final.FinalizeExecuted)
			return final, files, nil
		}
	}
}

// runSlot keeps one child running until ctx ends, respawning it up to
// fleetRespawns times; a slot out of respawns reports itself exhausted.
func (f *fleet) runSlot(ctx context.Context, slot int) {
	for launch := 0; ; launch++ {
		err := f.runChild(ctx, slot, launch)
		if ctx.Err() != nil {
			return
		}
		if launch == fleetRespawns {
			f.log.Printf("dispatch: slot %d child exited (%v); out of respawns", slot, err)
			f.exhausted <- slot
			return
		}
		f.log.Printf("dispatch: slot %d child exited (%v); respawn %d/%d", slot, err, launch+1, fleetRespawns)
	}
}

// runChild runs one pull child to exit, streaming its output with a slot
// prefix. The child gets its own process group, killed when ctx ends.
func (f *fleet) runChild(ctx context.Context, slot, launch int) error {
	var cmd *exec.Cmd
	if f.opts.Template != "" {
		cmd = exec.CommandContext(ctx, "sh", "-c", expandTemplate(f.opts.Template, f.argv, slot, f.port))
	} else {
		cmd = exec.CommandContext(ctx, f.argv[0], f.argv[1:]...)
	}
	// A distinct fault salt per launch: a respawned child under an
	// inherited -faults schedule draws a fresh fault sequence instead of
	// re-hitting the one that killed its predecessor.
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=slot-%d-launch-%d", fault.SaltEnvVar, slot, launch))
	prefix := fmt.Sprintf("[slot %d] ", slot)
	var tail []string
	stdout := &lineWriter{emit: func(line string) { f.log.Print(prefix + line) }}
	stderr := &lineWriter{emit: func(line string) {
		f.log.Print(prefix + line)
		f.mu.Lock()
		tail = append(tail, line)
		if len(tail) > stderrTailLines {
			tail = tail[len(tail)-stderrTailLines:]
		}
		f.mu.Unlock()
	}}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// A template that backgrounds a grandchild must not wedge Wait on an
	// inherited pipe.
	cmd.WaitDelay = 5 * time.Second
	setProcGroup(cmd)
	cmd.Cancel = func() error { return killGroup(cmd) }
	// The dispatch.worker failpoint delays the launch or SIGKILLs the
	// child later — the OOM-kill case lease expiry and respawns exist for.
	act := fault.Fire(fault.DispatchWorker)
	if act != nil && act.Kind == fault.Delay {
		select {
		case <-time.After(act.Value):
		case <-ctx.Done():
		}
	}
	f.log.Printf("dispatch: slot %d launch %d", slot, launch+1)
	err := cmd.Start()
	if err == nil {
		if act != nil && act.Kind == fault.Kill {
			after := act.Value
			if after <= 0 {
				after = time.Second
			}
			t := time.AfterFunc(after, func() { killGroup(cmd) })
			defer t.Stop()
		}
		err = cmd.Wait()
	}
	stdout.flush()
	stderr.flush()
	f.mu.Lock()
	f.lastTail = tail
	f.mu.Unlock()
	return err
}

// tail renders the stderr tail of the child that exited last.
func (f *fleet) tail() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.lastTail) == 0 {
		return "(no stderr)"
	}
	return strings.Join(f.lastTail, "\n")
}

// expandTemplate substitutes {args}, {slot} and {port} into a child
// command template.
func expandTemplate(tmpl string, argv []string, slot, port int) string {
	quoted := make([]string, len(argv))
	for i, arg := range argv {
		quoted[i] = shellQuote(arg)
	}
	return strings.NewReplacer(
		"{args}", strings.Join(quoted, " "),
		"{slot}", strconv.Itoa(slot),
		"{port}", strconv.Itoa(port),
	).Replace(tmpl)
}

// shellQuote renders one argv word safely for sh -c.
func shellQuote(s string) string {
	if s == "" {
		return "''"
	}
	if !strings.ContainsAny(s, " \t\n\"'\\$&|;<>()*?[]#~`!{}") {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// lineWriter splits a child's output stream into lines for emit. The
// mutex matters: cmd.WaitDelay can abandon the exec copy goroutine that
// calls Write while runChild flushes.
type lineWriter struct {
	emit func(string)

	mu  sync.Mutex
	buf []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.emit(strings.TrimSuffix(string(w.buf[:i]), "\r"))
		w.buf = w.buf[i+1:]
	}
}

func (w *lineWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) > 0 {
		w.emit(string(w.buf))
		w.buf = nil
	}
}

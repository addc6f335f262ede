// Package fault is the deterministic, seed-driven failpoint framework:
// named injection points at every I/O boundary of the store/shard/
// journal/service pipeline, activated per-process by a compact schedule spec
// (the -faults flag or $PRACSIM_FAULTS), so "what happens when several
// things fail at once" is a reproducible input to a run rather than an
// anecdote from production.
//
// A schedule is a semicolon-separated list of rules:
//
//	seed=7;store.disk.get:err@0.2;dispatch.worker:kill=2sx1
//
// Each rule is `point:kind[=duration][@probability][xmax]`: the kind of
// fault to inject at the named point, an optional duration operand
// (delays, kill timers), the per-hit firing probability (default 1) and
// a cap on total firings (default unlimited). Every firing decision is a
// pure function of (seed, salt, point, rule, hit ordinal), so the same
// spec replays the same fault sequence — the salt ($PRACSIM_FAULT_SALT,
// set per child launch by the dispatch fleet) decorrelates respawned
// worker processes that would otherwise re-draw the exact faults that
// killed their predecessor.
//
// When no plan is enabled the per-hit cost is one atomic pointer load
// and a nil check — the framework is free on the hot path, pinned by
// BenchmarkFireDisabled and TestDisabledOverheadGuard.
package fault

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar names the environment variable a process reads its fault
// schedule from (the -faults flag defaults to it). Child processes — a
// dispatch fleet's pull children — inherit it, so one spec faults a
// whole process tree.
const EnvVar = "PRACSIM_FAULTS"

// SaltEnvVar names the per-process salt mixed into every firing draw.
// The dispatch fleet sets it per child launch so a respawned child
// does not deterministically re-draw the faults that failed its
// predecessor, while the run as a whole stays replayable.
const SaltEnvVar = "PRACSIM_FAULT_SALT"

// The failpoints threaded through the pipeline. Each site documents the
// kinds it honors; a rule with a kind the site never checks simply never
// fires behavior (but still draws, keeping schedules stable).
const (
	// StoreDiskGet fires in the disk backend's entry read: err, corrupt.
	StoreDiskGet = "store.disk.get"
	// StoreDiskPut fires in the disk backend's atomic write: err,
	// enospc, short, delay (the write stalls for the operand first).
	StoreDiskPut = "store.disk.put"
	// StoreDiskEvict fires in the disk backend's read paths: evict
	// (the entry is evicted before it is served, so the read degrades to
	// a miss — never an error). Chaos schedules use it to fire eviction
	// storms mid-session without needing a store that actually overflows
	// its budget.
	StoreDiskEvict = "store.disk.evict"
	// ShardRead fires in the shard-file reader (validate and merge):
	// err, corrupt.
	ShardRead = "shard.read"
	// ShardWrite fires in the shard-file writer: err, short.
	ShardWrite = "shard.write"
	// DispatchWorker fires when the dispatch fleet launches a pull
	// child: kill (SIGKILL its process group after the duration
	// operand), delay (the launch waits the operand).
	DispatchWorker = "dispatch.worker"
	// JournalAppend fires in the journal's record append: err
	// (append fails, nothing written), short (a partial frame lands on
	// disk and is immediately repaired by truncation), torn (a partial
	// frame lands on disk and stays there — the crash-mid-append case
	// recovery must truncate on the next open).
	JournalAppend = "journal.append"
	// JournalSync fires in the journal's fsync batch: err (the
	// sync fails; the journal stays usable and the next sync retries).
	JournalSync = "journal.sync"
	// ServiceSubmit fires in pracsimd's job-submit handler: err (500 —
	// the job is not recorded and the client must retry), delay.
	ServiceSubmit = "service.submit"
	// QueueLease fires on the work-item lease path — the daemon's grant
	// handler and the pull worker's lease request alike: err, delay.
	QueueLease = "queue.lease"
	// QueueAck fires on the work-item ack path — the daemon's shard
	// upload handler and the pull worker's delivery alike: err (the ack
	// fails; the lease expires and the item requeues), delay.
	QueueAck = "queue.ack"
	// ServiceStream fires per SSE progress event in pracsimd: err (the
	// stream drops mid-job; polling still serves the status), delay.
	ServiceStream = "service.stream"
)

// Kind names what a fired failpoint does at its site.
type Kind string

// The fault kinds. Sites interpret them; Parse validates them.
const (
	Err     Kind = "err"     // a generic injected error
	Corrupt Kind = "corrupt" // flip a byte in the data stream
	ENOSPC  Kind = "enospc"  // disk-full on write
	Short   Kind = "short"   // short write
	Kill    Kind = "kill"    // SIGKILL the worker process
	Delay   Kind = "delay"   // sleep the duration operand
	Torn    Kind = "torn"    // leave a torn partial write behind (journal)
	Evict   Kind = "evict"   // evict the store entry being read (degrades to a miss)
)

var knownPoints = map[string]bool{
	StoreDiskGet: true, StoreDiskPut: true, StoreDiskEvict: true,
	ShardRead: true, ShardWrite: true,
	DispatchWorker: true,
	JournalAppend:  true, JournalSync: true,
	ServiceSubmit: true, QueueLease: true, QueueAck: true, ServiceStream: true,
}

var knownKinds = map[Kind]bool{
	Err: true, Corrupt: true, ENOSPC: true, Short: true, Kill: true,
	Delay: true, Torn: true, Evict: true,
}

// Points enumerates every failpoint, for docs and usage errors.
func Points() []string {
	pts := make([]string, 0, len(knownPoints))
	for p := range knownPoints {
		pts = append(pts, p)
	}
	sort.Strings(pts) // stable order for help text and error messages
	return pts
}

// Action is one fired failpoint: what the site should do.
type Action struct {
	Point string
	Kind  Kind
	// Value is the duration operand (kill timers, delays); zero when the
	// rule carried none.
	Value time.Duration
	// Hit is the 1-based hit ordinal at this point that fired, for logs.
	Hit int64
}

// Err renders the injected failure as an error a site can return.
func (a *Action) Err(op string) error {
	return fmt.Errorf("fault: injected %s at %s (%s)", a.Kind, a.Point, op)
}

// rule is one parsed schedule entry.
type rule struct {
	kind  Kind
	value time.Duration
	prob  float64 // (0, 1]
	max   int64   // 0 = unlimited

	hits  atomic.Int64 // draws at this rule (every hit of its point)
	fired atomic.Int64
}

// Plan is a parsed, activatable fault schedule.
type Plan struct {
	// Spec is the schedule string the plan was parsed from.
	Spec string
	// Seed drives every firing draw (default 1).
	Seed uint64
	// Salt decorrelates processes sharing a spec; see SaltEnvVar.
	Salt string
	// LogTo, when non-nil, receives one line per fired fault — worker
	// stderr by default, so a dispatch fleet's injected faults surface
	// in the driver's slot-prefixed stream.
	LogTo io.Writer

	rules map[string][]*rule

	mu  sync.Mutex
	log []string

	fired atomic.Int64
}

// Parse reads a fault schedule spec. Unknown points and kinds are
// errors: a typo that silently injects nothing would make a green chaos
// run meaningless.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Spec: spec, Seed: 1, rules: make(map[string][]*rule)}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(part, "seed="); ok {
			seed, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", rest)
			}
			p.Seed = seed
			continue
		}
		point, action, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fault: rule %q is not point:kind[=dur][@prob][xN]", part)
		}
		if !knownPoints[point] {
			return nil, fmt.Errorf("fault: unknown failpoint %q (known: %s)", point, strings.Join(Points(), ", "))
		}
		r, err := parseAction(action)
		if err != nil {
			return nil, fmt.Errorf("fault: rule %q: %w", part, err)
		}
		p.rules[point] = append(p.rules[point], r)
	}
	return p, nil
}

// parseAction reads `kind[=dur][@prob][xN]`.
func parseAction(s string) (*rule, error) {
	r := &rule{prob: 1}
	// xN suffix: a trailing 'x' followed only by digits. Checked first so
	// it cannot be confused with duration units or kind names.
	if i := strings.LastIndexByte(s, 'x'); i >= 0 && i < len(s)-1 && allDigits(s[i+1:]) {
		n, err := strconv.ParseInt(s[i+1:], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad max %q", s[i+1:])
		}
		r.max, s = n, s[:i]
	}
	if kind, prob, ok := strings.Cut(s, "@"); ok {
		f, err := strconv.ParseFloat(prob, 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("bad probability %q (want (0, 1])", prob)
		}
		r.prob, s = f, kind
	}
	if kind, val, ok := strings.Cut(s, "="); ok {
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad duration %q", val)
		}
		r.value, s = d, kind
	}
	if !knownKinds[Kind(s)] {
		return nil, fmt.Errorf("unknown fault kind %q", s)
	}
	r.kind = Kind(s)
	return r, nil
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// active is the process's enabled plan; nil means every Fire is a no-op.
var active atomic.Pointer[Plan]

// Enable activates a plan process-wide (replacing any previous one).
func Enable(p *Plan) { active.Store(p) }

// Disable deactivates fault injection.
func Disable() { active.Store(nil) }

// Active returns the enabled plan, or nil.
func Active() *Plan { return active.Load() }

// EnableFromEnv parses and enables $PRACSIM_FAULTS (with
// $PRACSIM_FAULT_SALT mixed in) when set, reporting whether a plan was
// enabled. CLIs call it so fault schedules propagate to re-exec'd fleet
// workers through the environment.
func EnableFromEnv() (bool, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return false, nil
	}
	p, err := Parse(spec)
	if err != nil {
		return false, err
	}
	p.Salt = os.Getenv(SaltEnvVar)
	p.LogTo = os.Stderr
	Enable(p)
	return true, nil
}

// Fire evaluates a failpoint: nil when no plan is enabled (the fast
// path — one atomic load), no rule matches, the draw misses, or the
// rule's firing cap is spent.
func Fire(point string) *Action {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(point)
}

// Fired reports how many faults the enabled plan has injected (0
// without a plan) — the counter sessions and worker trailers surface.
func Fired() int64 {
	if p := active.Load(); p != nil {
		return p.fired.Load()
	}
	return 0
}

// Log snapshots the enabled plan's injected-fault log (nil without a
// plan). With a fixed seed and a serial workload the log is identical
// across runs — the reproducibility contract chaos tests pin.
func Log() []string {
	if p := active.Load(); p != nil {
		return p.snapshotLog()
	}
	return nil
}

func (p *Plan) fire(point string) *Action {
	rules := p.rules[point]
	if rules == nil {
		return nil
	}
	for ri, r := range rules {
		n := r.hits.Add(1)
		if r.prob < 1 && draw(p.Seed, p.Salt, point, ri, n) >= r.prob {
			continue
		}
		if r.max > 0 && r.fired.Add(1) > r.max {
			continue
		}
		p.fired.Add(1)
		a := &Action{Point: point, Kind: r.kind, Value: r.value, Hit: n}
		p.record(a)
		return a
	}
	return nil
}

func (p *Plan) record(a *Action) {
	line := fmt.Sprintf("fault: %s hit %d -> %s", a.Point, a.Hit, a.Kind)
	if a.Value > 0 {
		line += "=" + a.Value.String()
	}
	if p.Salt != "" {
		line = fmt.Sprintf("fault[%s]: %s hit %d -> %s", p.Salt, a.Point, a.Hit, a.Kind)
	}
	p.mu.Lock()
	p.log = append(p.log, line)
	w := p.LogTo
	p.mu.Unlock()
	if w != nil {
		fmt.Fprintln(w, line)
	}
}

func (p *Plan) snapshotLog() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.log...)
}

// Fired reports how many faults this plan has injected.
func (p *Plan) Fired() int64 { return p.fired.Load() }

// draw maps (seed, salt, point, rule, hit) to a uniform float in [0, 1)
// — splitmix64 over an FNV-mixed key, so firing decisions are
// deterministic and independent across points and hits.
func draw(seed uint64, salt, point string, rule int, hit int64) float64 {
	h := fnv.New64a()
	io.WriteString(h, salt)
	io.WriteString(h, "\x00")
	io.WriteString(h, point)
	x := seed ^ h.Sum64() ^ uint64(rule)<<48 ^ uint64(hit)
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// CorruptByte flips one byte of data in place (the middle byte — enough
// to break any checksum) and returns it; the shared helper for
// corrupt-kind sites.
func CorruptByte(data []byte) []byte {
	if len(data) > 0 {
		data[len(data)/2] ^= 0x80
	}
	return data
}

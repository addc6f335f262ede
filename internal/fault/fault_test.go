package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParseGrammar(t *testing.T) {
	p, err := Parse("seed=42; store.disk.get:err@0.25; dispatch.worker:kill=2sx1; store.disk.put:enospc")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d, want 42", p.Seed)
	}
	diskGet := p.rules[StoreDiskGet]
	if len(diskGet) != 1 || diskGet[0].kind != Err || diskGet[0].prob != 0.25 || diskGet[0].max != 0 {
		t.Fatalf("store.disk.get rule = %+v", diskGet)
	}
	kill := p.rules[DispatchWorker]
	if len(kill) != 1 || kill[0].kind != Kill || kill[0].value != 2*time.Second || kill[0].max != 1 {
		t.Fatalf("dispatch.worker rule = %+v", kill)
	}
	enospc := p.rules[StoreDiskPut]
	if len(enospc) != 1 || enospc[0].kind != ENOSPC || enospc[0].prob != 1 {
		t.Fatalf("store.disk.put rule = %+v", enospc)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"seed=nope",
		"store.disk.get",             // no kind
		"no.such.point:err",          // unknown point
		"store.disk.get:frob",        // unknown kind
		"store.disk.get:err@0",       // probability out of range
		"store.disk.get:err@1.5",     // probability out of range
		"store.disk.get:err@bad",     // unparseable probability
		"store.disk.get:errx0",       // zero max
		"dispatch.worker:kill=-1s",   // negative duration
		"dispatch.worker:kill=later", // unparseable duration
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseEmptySpecIsEmptyPlan(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if a := p.fire(StoreDiskGet); a != nil {
		t.Fatalf("empty plan fired %+v", a)
	}
}

func TestFireRespectsMaxAndCounts(t *testing.T) {
	p, err := Parse("shard.read:errx2")
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 10; i++ {
		if p.fire(ShardRead) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (x2 cap)", fired)
	}
	if p.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", p.Fired())
	}
}

func TestFireProbabilityIsDeterministic(t *testing.T) {
	const spec = "seed=7;store.disk.get:err@0.3"
	run := func(salt string) []bool {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		p.Salt = salt
		out := make([]bool, 200)
		for i := range out {
			out[i] = p.fire(StoreDiskGet) != nil
		}
		return out
	}
	a, b := run(""), run("")
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs between identical plans", i)
		}
		if a[i] {
			fired++
		}
	}
	// ~30% of 200 hits; generous bounds, but deterministic anyway.
	if fired < 30 || fired > 90 {
		t.Fatalf("fired %d/200 at p=0.3", fired)
	}
	// A different salt draws a different sequence.
	c := run("shard-1-attempt-2")
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("salted plan drew the identical sequence")
	}
}

func TestSeedChangesSequence(t *testing.T) {
	seq := func(spec string) string {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 100; i++ {
			if p.fire(StoreDiskGet) != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	if seq("seed=1;store.disk.get:err@0.5") == seq("seed=2;store.disk.get:err@0.5") {
		t.Fatal("different seeds drew identical sequences")
	}
}

func TestEnableDisableAndGlobalFire(t *testing.T) {
	defer Disable()
	if a := Fire(StoreDiskGet); a != nil {
		t.Fatalf("Fire with no plan = %+v, want nil", a)
	}
	if Fired() != 0 || Log() != nil {
		t.Fatal("disabled framework reported activity")
	}
	p, err := Parse("store.disk.get:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	Enable(p)
	a := Fire(StoreDiskGet)
	if a == nil || a.Kind != Corrupt || a.Point != StoreDiskGet || a.Hit != 1 {
		t.Fatalf("Fire = %+v", a)
	}
	if Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", Fired())
	}
	log := Log()
	if len(log) != 1 || !strings.Contains(log[0], "store.disk.get") || !strings.Contains(log[0], "corrupt") {
		t.Fatalf("Log() = %q", log)
	}
	Disable()
	if a := Fire(StoreDiskGet); a != nil {
		t.Fatalf("Fire after Disable = %+v", a)
	}
}

func TestSameSeedSameLog(t *testing.T) {
	run := func() []string {
		p, err := Parse("seed=11;shard.read:corrupt@0.4;store.disk.put:enospc@0.2x3")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			p.fire(ShardRead)
			p.fire(StoreDiskPut)
		}
		return p.snapshotLog()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("storm injected nothing")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("same seed produced different fault logs:\n%v\n---\n%v", a, b)
	}
}

func TestEnableFromEnv(t *testing.T) {
	defer Disable()
	t.Setenv(EnvVar, "seed=3;store.disk.get:corrupt@0.5")
	t.Setenv(SaltEnvVar, "w3")
	ok, err := EnableFromEnv()
	if err != nil || !ok {
		t.Fatalf("EnableFromEnv = %v, %v", ok, err)
	}
	p := Active()
	if p == nil || p.Seed != 3 || p.Salt != "w3" {
		t.Fatalf("Active() = %+v", p)
	}

	t.Setenv(EnvVar, "")
	Disable()
	if ok, err := EnableFromEnv(); ok || err != nil {
		t.Fatalf("empty env enabled a plan: %v, %v", ok, err)
	}

	t.Setenv(EnvVar, "bogus spec")
	if _, err := EnableFromEnv(); err == nil {
		t.Fatal("bad env spec did not error")
	}
}

func TestActionErr(t *testing.T) {
	a := &Action{Point: StoreDiskGet, Kind: Err, Hit: 4}
	err := a.Err("GET /v1/e/abc")
	if !strings.Contains(err.Error(), "injected err") || !strings.Contains(err.Error(), StoreDiskGet) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestCorruptByte(t *testing.T) {
	data := []byte("hello world")
	orig := string(data)
	if got := string(CorruptByte(data)); got == orig {
		t.Fatal("CorruptByte left data unchanged")
	}
	if len(data) != len(orig) {
		t.Fatal("CorruptByte changed length")
	}
	CorruptByte(nil) // must not panic
}

// Package lint is praclint: a project-invariant static-analysis suite
// that mechanically enforces the contracts every PR in this repo stakes
// its correctness on, turning reviewer folklore into CI-enforced law:
//
//   - determinism — the simulation core (sim, memctrl, dram, cache,
//     mitigation, attack, exp/pool) must be a pure function of its
//     seeds: no wall-clock reads outside the telemetry allowlist, no
//     math/rand global-source draws, and no map iteration feeding
//     output, encoding or event scheduling (map order would make CSVs
//     flip run to run).
//   - failpoint — every direct os/file/network I/O call in the
//     store/shard/journal/service pipeline must be reachable through a
//     function that fires a fault failpoint (so chaos schedules can
//     reach it), and every failpoint name used in code or in a schedule
//     literal must exist in internal/fault's registry (a typo'd point
//     would silently never fire).
//   - degrade — the store backend's Get path may only surface
//     ErrNotFound or I/O errors the counting front classifies; a raw
//     decode/corruption error must not escape without the degrade
//     action (quarantine/forget) that turns the bad entry into a miss.
//     Code outside the store package must read entries through the
//     degrading Store front, never the backend directly.
//   - locks — no I/O and no fault.Fire while holding a sync.Mutex or
//     RWMutex acquired in the same function (the eviction/pinning-race
//     shape: an injected fault or a slow disk inside a critical section
//     turns a cheap lock into a stall or a deadlock).
//
// Intentional exceptions are annotated in source:
//
//	//praclint:allow <check> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; a malformed or unknown-check directive is itself a finding
// (check "praclint"), so suppressions stay auditable.
//
// The suite is stdlib-only (go/ast, go/parser, go/types); packages are
// loaded and type-checked via `go list -deps -export` and the gc
// importer, so praclint adds zero module dependencies.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Check names. MetaCheck is praclint's own hygiene (directive syntax,
// configuration errors) and cannot be disabled or suppressed.
const (
	CheckDeterminism = "determinism"
	CheckFailpoint   = "failpoint"
	CheckDegrade     = "degrade"
	CheckLocks       = "locks"
	MetaCheck        = "praclint"
)

// Checks enumerates the toggleable analyzers, in reporting order.
func Checks() []string {
	return []string{CheckDeterminism, CheckFailpoint, CheckDegrade, CheckLocks}
}

// Finding is one rule violation at one position.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Config scopes and parameterizes the analyzers. Scopes are import-path
// prefixes: a package is in scope when its path equals an entry or lives
// under it ("p" covers "p/sub"). Function names are canonical
// "pkgpath.Func" or "pkgpath.Type.Method" (no pointer stars).
type Config struct {
	// Enable/Disable toggle individual checks; empty Enable means all.
	Enable, Disable []string

	// DeterminismScope is the sim-core package set.
	DeterminismScope []string
	// WallClockAllow lists the telemetry functions allowed to read the
	// wall clock (canonical names).
	WallClockAllow []string

	// FailpointScope is the I/O-pipeline package set for the
	// failpoint-coverage rule.
	FailpointScope []string
	// FaultPkg is the import path of the failpoint registry package; it
	// is loaded (and analyzed) even when the patterns do not match it.
	FaultPkg string
	// RegistryVar names the map[string]bool of known points in FaultPkg.
	RegistryVar string
	// FireFuncs are the failpoint-firing functions (canonical names).
	FireFuncs []string
	// ScheduleFuncs take a schedule spec string as their first argument.
	ScheduleFuncs []string

	// DegradeScope is the store package set; code outside it must not
	// call a backend's Get method directly.
	DegradeScope []string
	// BackendTypes are the store backend types behind the counting
	// front (canonical "pkgpath.Type").
	BackendTypes []string
	// DecodeFuncs are the decode/validation functions whose errors mean
	// "this copy is corrupt" (canonical names).
	DecodeFuncs []string
	// DegradeActions are method/function names that realize the degrade
	// (quarantine, forget): a tainted error may be returned only after
	// one of them ran.
	DegradeActions []string

	// LocksScope is the lock-hygiene package set; empty means every
	// analyzed package.
	LocksScope []string
}

// DefaultConfig is the project configuration `cmd/praclint` runs with.
func DefaultConfig() Config {
	return Config{
		DeterminismScope: []string{
			"pracsim/internal/sim",
			"pracsim/internal/memctrl",
			"pracsim/internal/dram",
			"pracsim/internal/cache",
			"pracsim/internal/mitigation",
			"pracsim/internal/attack",
			"pracsim/internal/exp/pool",
		},
		WallClockAllow: []string{
			// The one telemetry boundary: System.Run measures its own wall
			// time into RunResult.Telemetry. Figures never depend on it.
			"pracsim/internal/sim.System.Run",
		},
		FailpointScope: []string{
			"pracsim/internal/exp/store",
			"pracsim/internal/exp/shard",
			"pracsim/internal/exp/journal",
			"pracsim/internal/exp/service",
		},
		FaultPkg:      "pracsim/internal/fault",
		RegistryVar:   "knownPoints",
		FireFuncs:     []string{"pracsim/internal/fault.Fire"},
		ScheduleFuncs: []string{"pracsim/internal/fault.Parse"},
		DegradeScope:  []string{"pracsim/internal/exp/store"},
		BackendTypes:  []string{"pracsim/internal/exp/store.Disk"},
		DecodeFuncs: []string{
			"pracsim/internal/exp/store.DecodeFrame",
			"pracsim/internal/exp/store.DecodeFrameAny",
			"pracsim/internal/exp/store.parseFrameHeader",
			"pracsim/internal/sim.DecodeResult",
			"encoding/json.Unmarshal",
		},
		DegradeActions: []string{"quarantine", "forget", "lcForget", "injectEvict"},
	}
}

// enabled reports whether a check runs under this config.
func (c Config) enabled(check string) bool {
	for _, d := range c.Disable {
		if d == check {
			return false
		}
	}
	if len(c.Enable) == 0 {
		return true
	}
	for _, e := range c.Enable {
		if e == check {
			return true
		}
	}
	return false
}

// inScope reports whether pkgPath is covered by the scope prefix list.
func inScope(scope []string, pkgPath string) bool {
	for _, s := range scope {
		if pkgPath == s || strings.HasPrefix(pkgPath, s+"/") {
			return true
		}
	}
	return false
}

// Run loads the packages matched by patterns (resolved relative to dir,
// "" = cwd) and runs every enabled analyzer, returning the surviving
// (unsuppressed) findings sorted by position. Findings of the meta check
// (malformed suppression directives, registry extraction failures) are
// always included.
func Run(dir string, patterns []string, cfg Config) ([]Finding, error) {
	prog, err := Load(dir, patterns, cfg.FaultPkg)
	if err != nil {
		return nil, err
	}
	return Analyze(prog, cfg), nil
}

// Analyze runs the enabled analyzers over an already-loaded program.
func Analyze(prog *Program, cfg Config) []Finding {
	idx := buildIndex(prog)
	var raw []Finding
	if cfg.enabled(CheckDeterminism) {
		raw = append(raw, determinism(prog, idx, cfg)...)
	}
	if cfg.enabled(CheckFailpoint) {
		raw = append(raw, failpoint(prog, idx, cfg)...)
	}
	if cfg.enabled(CheckDegrade) {
		raw = append(raw, degrade(prog, idx, cfg)...)
	}
	if cfg.enabled(CheckLocks) {
		raw = append(raw, locks(prog, idx, cfg)...)
	}
	findings := applySuppressions(prog, raw)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return findings
}

// finding builds a Finding at a token position.
func finding(fset *token.FileSet, pos token.Pos, check, format string, args ...any) Finding {
	p := fset.Position(pos)
	return Finding{
		Check:   check,
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// directiveRe matches a suppression comment. The check name and a
// non-empty reason are both mandatory.
var directiveRe = regexp.MustCompile(`^//praclint:allow\s+([A-Za-z0-9_-]+)\s+(\S.*)$`)

// allowDirective is one parsed //praclint:allow comment.
type allowDirective struct {
	check string
	line  int // line the comment sits on
}

// applySuppressions drops findings covered by a //praclint:allow
// directive for their check on the same line or the line directly above,
// and adds meta findings for malformed directives. Meta findings are
// never suppressible: an unauditable suppression is worse than noise.
func applySuppressions(prog *Program, raw []Finding) []Finding {
	known := map[string]bool{}
	for _, c := range Checks() {
		known[c] = true
	}
	// file -> line -> set of allowed checks.
	allowed := map[string]map[int]map[string]bool{}
	var out []Finding
	addAllow := func(file string, line int, check string) {
		if allowed[file] == nil {
			allowed[file] = map[int]map[string]bool{}
		}
		if allowed[file][line] == nil {
			allowed[file][line] = map[string]bool{}
		}
		allowed[file][line][check] = true
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					if !strings.HasPrefix(text, "//praclint:") {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					m := directiveRe.FindStringSubmatch(text)
					if m == nil {
						out = append(out, Finding{
							Check: MetaCheck, File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("malformed directive %q: want //praclint:allow <check> <reason>", text),
						})
						continue
					}
					if !known[m[1]] {
						out = append(out, Finding{
							Check: MetaCheck, File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("directive allows unknown check %q (known: %s)", m[1], strings.Join(Checks(), ", ")),
						})
						continue
					}
					// The directive covers its own line and the line below,
					// so it works both trailing and as a lead-in comment.
					addAllow(pos.Filename, pos.Line, m[1])
					addAllow(pos.Filename, pos.Line+1, m[1])
				}
			}
		}
	}
	for _, f := range raw {
		if f.Check != MetaCheck && allowed[f.File][f.Line][f.Check] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// isTestFile reports whether the AST file is a _test.go file. The loader
// only feeds non-test files, but fixtures guard against drift.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile.proto the attribution reads:
// sample stacks as function names, leaf first, and their values.
type profile struct {
	sampleTypes []string // "type/unit" per value index
	samples     []profSample
}

type profSample struct {
	stack  []string // function names, innermost frame first
	values []int64
}

// parseProfile decodes a (possibly gzip'd) profile.proto. It reads the
// string table, functions, locations with their inlined lines, sample
// types and samples, and skips every other field.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		typeIdx   [][2]int64              // sample type: string indices of type and unit
		funcName  = map[uint64]int64{}    // function id → name string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		rawSample []struct {
			locs   []uint64
			values []int64
		}
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample
			var s struct {
				locs   []uint64
				values []int64
			}
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, wire, v, b, func(x uint64) uint64 { return x })
				case 2:
					return appendPacked(&s.values, wire, v, b, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			rawSample = append(rawSample, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range typeIdx {
		typ, err1 := str(t[0])
		unit, err2 := str(t[1])
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for _, rs := range rawSample {
		s := profSample{values: rs.values}
		for _, loc := range rs.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				idx, ok := funcName[fn]
				if !ok {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
				}
				name, err := str(idx)
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field that may arrive packed
// (one length-delimited run of varints) or as single varints.
func appendPacked[T any](dst *[]T, wire int, v uint64, b []byte, conv func(uint64) T) error {
	if wire == 0 {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, conv(x))
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layer attribution. A sample's CPU time goes to one bucket:
//
//   - runtime.gc if any frame is garbage-collector work (background
//     marking, assists, sweeping, scavenging);
//   - else runtime.malloc if any frame is the allocator (mallocgc,
//     newobject, growslice and the make family);
//   - else the layer of the innermost frame that belongs to a layer.
//     Runtime helpers (memmove, memclr, duffcopy, duffzero, map and
//     channel operations, syscall stubs) and the standard library pass
//     through to their caller, because the caller did the work: a
//     memmove inside memctrl is memctrl's time, math/rand inside the
//     trace generator is trace's, and the fsync a journal append waits
//     on is the journal's. Repository packages map by name: internal/X
//     is X, exp with exp/pool, exp/shard and exp/dispatch is exp,
//     exp/store is store, exp/journal is journal, exp/service is
//     service.
//   - A stack that never reaches a layer is io when it runs in net,
//     syscall, os, io, bufio, crypto, encoding, compress, hash or mime
//     (HTTP plumbing, mostly), runtime.other when its leaf is runtime
//     code (the scheduler, idle threads), and other otherwise; the
//     profiler's own goroutine is other too.
var repoLayers = []string{"sim", "cpu", "trace", "cache", "memctrl", "dram", "mitigation", "analysis", "attack", "exp", "store", "journal", "service"}

// shareBuckets lists every bucket attribution can return, in report order.
var shareBuckets = append(append([]string(nil), repoLayers...), "io", "other", "runtime.gc", "runtime.malloc", "runtime.other")

// shareMetric names the per-layer metric a bucket's share is reported as.
func shareMetric(bucket string) string {
	if rest, ok := strings.CutPrefix(bucket, "runtime."); ok {
		return "runtime." + rest + "_pct"
	}
	return bucket + ".self_pct"
}

// attribute returns each bucket's share of the profile's CPU time in
// percent; every bucket is present and the shares sum to 100 (or are all
// zero for an empty profile).
func attribute(p *profile) map[string]float64 {
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu/nanoseconds" {
			vi = i
		}
	}
	byBucket := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		byBucket[classify(s.stack)] += v
		total += v
	}
	out := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		out[b] = 0
		if total > 0 {
			out[b] = 100 * byBucket[b] / total
		}
	}
	return out
}

func classify(stack []string) string {
	for _, f := range stack {
		if funcPackage(f) == "runtime/pprof" {
			return "other"
		}
	}
	for _, f := range stack {
		if isGC(f) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if isMalloc(f) {
			return "runtime.malloc"
		}
	}
	sawIO := false
	for _, f := range stack {
		pkg := funcPackage(f)
		if layer, ok := repoLayer(pkg); ok {
			return layer
		}
		if !runtimePackage(pkg) && !stdPackage(pkg) {
			return "other" // the benchmark's own code, or a foreign module
		}
		sawIO = sawIO || ioPackage(pkg)
	}
	switch {
	case sawIO:
		return "io"
	case len(stack) > 0 && runtimePackage(funcPackage(stack[0])):
		return "runtime.other"
	}
	return "other"
}

var gcFuncs = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.wbBufFlush", "runtime._GC",
}

var mallocFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.growslice",
	"runtime.makeslice", "runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice",
	"runtime.rawruneslice", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isGC(f string) bool     { return hasAnyPrefix(f, gcFuncs) }
func isMalloc(f string) bool { return hasAnyPrefix(f, mallocFuncs) }

// funcPackage returns the import path of the package defining a symbol
// name such as "pracsim/internal/exp/pool.(*Cache[...]).Do".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// repoLayer maps a repository package to its layer; a repository package
// outside the layer list (stats, ticks, fault, ...) is "other".
func repoLayer(pkg string) (string, bool) {
	rest, ok := strings.CutPrefix(pkg, "pracsim/internal/")
	if !ok {
		return "", false
	}
	switch first, _, _ := strings.Cut(rest, "/"); {
	case within(rest, "exp/store"):
		return "store", true
	case within(rest, "exp/journal"):
		return "journal", true
	case within(rest, "exp/service"):
		return "service", true
	case first == "exp":
		return "exp", true
	default:
		for _, l := range repoLayers {
			if l == first {
				return l, true
			}
		}
		return "other", true
	}
}

// within reports whether pkg is p or lies below it.
func within(pkg, p string) bool { return pkg == p || strings.HasPrefix(pkg, p+"/") }

func runtimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg"
}

func ioPackage(pkg string) bool {
	if pkg == "internal/poll" || within(pkg, "internal/syscall") {
		return true
	}
	first, _, _ := strings.Cut(pkg, "/")
	switch first {
	case "net", "syscall", "os", "io", "bufio", "crypto", "encoding", "compress", "hash", "mime":
		return true
	}
	return false
}

// stdPackage reports whether pkg is a standard-library package: its
// first path element has no dot, and it is neither this repository nor
// the main package.
func stdPackage(pkg string) bool {
	first, _, _ := strings.Cut(pkg, "/")
	return !strings.Contains(first, ".") && first != "pracsim" && pkg != "main"
}

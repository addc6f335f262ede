package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// KeySchema extracts the schema-version label ("v3") from a store key.
// Both key families embed it in the same position — "pracsim/run/v3/…"
// and "pracsim/exp/v3/…" — and anything else (foreign or malformed keys)
// reports "?" so maintenance never guesses.
func KeySchema(key string) string {
	parts := strings.SplitN(key, "/", 4)
	if len(parts) >= 3 && parts[0] == "pracsim" && len(parts[2]) >= 2 && parts[2][0] == 'v' {
		if _, err := strconv.Atoi(parts[2][1:]); err == nil {
			return parts[2]
		}
	}
	return "?"
}

// SchemaFootprint is one schema version's share of a store.
type SchemaFootprint struct {
	Schema  string
	Entries int
	Bytes   int64
}

// InfoReport summarizes a store's contents — what `tpracsim -store-info`
// prints.
type InfoReport struct {
	Spec           string
	Entries        int
	Bytes          int64
	Oldest, Newest time.Time
	Schemas        []SchemaFootprint
}

// Collect walks a disk store and aggregates the maintenance summary.
// The walk streams (ListEach) and the aggregation is incremental, so
// summarizing a million-entry store holds one Info plus the per-schema
// totals in memory, never the full listing.
func Collect(d *Disk) (InfoReport, error) {
	rep := InfoReport{Spec: d.Dir()}
	bySchema := map[string]*SchemaFootprint{}
	err := d.ListEach(func(info Info) error {
		rep.Entries++
		rep.Bytes += info.Size
		if rep.Oldest.IsZero() || info.ModTime.Before(rep.Oldest) {
			rep.Oldest = info.ModTime
		}
		if info.ModTime.After(rep.Newest) {
			rep.Newest = info.ModTime
		}
		schema := KeySchema(info.Key)
		fp := bySchema[schema]
		if fp == nil {
			fp = &SchemaFootprint{Schema: schema}
			bySchema[schema] = fp
		}
		fp.Entries++
		fp.Bytes += info.Size
		return nil
	})
	if err != nil {
		return InfoReport{}, err
	}
	for _, fp := range bySchema {
		rep.Schemas = append(rep.Schemas, *fp)
	}
	sort.Slice(rep.Schemas, func(i, j int) bool { return rep.Schemas[i].Schema < rep.Schemas[j].Schema })
	return rep, nil
}

// ParseByteSize parses the human-readable sizes the -store-budget /
// -budget flags accept: a plain integer is bytes, and K/KB/M/MB/G/GB
// suffixes (case-insensitive, 1024-based) scale it. "0" or "" disables
// whatever the size configures.
func ParseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		tag string
		m   int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(upper, suf.tag) {
			mult = suf.m
			s = strings.TrimSpace(s[:len(s)-len(suf.tag)])
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("store: invalid size %q (want e.g. 1048576, 512MB, 2GB)", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("store: size %q overflows", s)
	}
	return n * mult, nil
}

func kb(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%.1f KB", float64(n)/1024)
}

func age(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return time.Since(t).Truncate(time.Second).String()
}

// Render returns the human-readable maintenance report.
func (r InfoReport) Render() string {
	out := fmt.Sprintf("store %s: %d entries, %s", r.Spec, r.Entries, kb(r.Bytes))
	if r.Entries > 0 {
		out += fmt.Sprintf(", oldest %s ago, newest %s ago", age(r.Oldest), age(r.Newest))
	}
	out += "\n"
	for _, fp := range r.Schemas {
		label := fp.Schema
		if label == "?" {
			label = "? (unrecognized keys)"
		}
		out += fmt.Sprintf("  schema %-22s %6d entries  %10s\n", label, fp.Entries, kb(fp.Bytes))
	}
	return strings.TrimRight(out, "\n")
}

// Prune deletes every entry from a recognized schema version other than
// current (e.g. "v3") — the orphans a schema bump leaves behind, which
// no future run can ever hit. Unrecognized keys are left alone: deleting
// what we cannot classify is how caches eat data. Entries that vanish
// mid-prune (a concurrent prune, a budget eviction) are counted as
// already gone, not failures.
func Prune(d *Disk, current string) (pruned int, bytes int64, err error) {
	err = d.ListEach(func(info Info) error {
		schema := KeySchema(info.Key)
		if schema == "?" || schema == current {
			return nil
		}
		if derr := d.Delete(info.Key); derr != nil && derr != ErrNotFound {
			return derr
		}
		pruned++
		bytes += info.Size
		return nil
	})
	return pruned, bytes, err
}

package fault

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// ruleView is the parsed content of a rule, without its firing counters.
type ruleView struct {
	kind  Kind
	value time.Duration
	prob  float64
	max   int64
}

// planView projects a plan onto its seed and rule set.
func planView(p *Plan) (uint64, map[string][]ruleView) {
	rules := map[string][]ruleView{}
	for point, rs := range p.rules {
		for _, r := range rs {
			rules[point] = append(rules[point], ruleView{r.kind, r.value, r.prob, r.max})
		}
	}
	return p.Seed, rules
}

// render writes a plan back in the schedule grammar, one canonical form
// per rule.
func render(p *Plan) string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	for _, point := range Points() {
		for _, r := range p.rules[point] {
			s := point + ":" + string(r.kind)
			if r.value != 0 {
				s += "=" + r.value.String()
			}
			if r.prob != 1 {
				s += "@" + strconv.FormatFloat(r.prob, 'g', -1, 64)
			}
			if r.max != 0 {
				s += "x" + strconv.FormatInt(r.max, 10)
			}
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, ";")
}

// FuzzParse fuzzes the fault schedule grammar. For any spec Parse must
// not panic, and an accepted spec must parse again from plan.Spec, and
// from a canonical rendering of its rules, to an equal seed and rule set.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"seed=42; store.disk.get:err@0.25; dispatch.worker:kill=2sx1; store.disk.put:enospc",
		"",
		"shard.read:errx2",
		"seed=7;store.disk.get:err@0.3",
		"journal.append:torn=1ms@0.5x3; journal.append:delay=250us",
		"seed=nope",
		"store.disk.get",
		"no.such.point:err",
		"store.disk.get:frob",
		"store.disk.get:err@0",
		"store.disk.get:err@1.5",
		"store.disk.get:err@bad",
		"store.disk.get:errx0",
		"dispatch.worker:kill=-1s",
		"dispatch.worker:kill=later",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		seed, rules := planView(p)
		for _, again := range []string{p.Spec, render(p)} {
			q, err := Parse(again)
			if err != nil {
				t.Fatalf("Parse(%q) accepted, but Parse(%q) = %v", spec, again, err)
			}
			if s, r := planView(q); s != seed || !reflect.DeepEqual(r, rules) {
				t.Fatalf("Parse(%q) = seed %d, rules %+v; Parse(%q) = seed %d, rules %+v",
					spec, seed, rules, again, s, r)
			}
		}
	})
}

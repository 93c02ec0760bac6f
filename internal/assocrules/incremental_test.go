package assocrules

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// lenientConfig mines permissively so random corpora actually grow rules.
func lenientConfig() Config {
	return Config{
		MinSupport:         0.05,
		MinConfidence:      0.30,
		ValidationFraction: 0.20,
		RulePrecisionCut:   0.30,
		MinValidationFires: 1,
		PeriodDays:         7,
		SupportScope:       PerTemplate,
	}
}

// randomTemplateSet builds a cube with nTemplates templates of entitiesPer
// entities each, properties shared within a template, change days drawn
// from [0, dayRange).
func randomTemplateSet(t *testing.T, rng *rand.Rand, nTemplates, entitiesPer, maxProps, dayRange int) *changecube.HistorySet {
	t.Helper()
	c := changecube.New()
	var histories []changecube.History
	for tm := 0; tm < nTemplates; tm++ {
		for e := 0; e < entitiesPer; e++ {
			ent := c.AddEntityNamed(fmt.Sprintf("infobox t%d", tm), fmt.Sprintf("T%d Page %d", tm, e))
			for f := 0; f < maxProps; f++ {
				prop := changecube.PropertyID(c.Properties.Intern(fmt.Sprintf("p%d", f)))
				set := map[timeline.Day]bool{}
				for n := rng.Intn(14); n > 0; n-- {
					set[timeline.Day(rng.Intn(dayRange))] = true
				}
				if len(set) == 0 {
					continue
				}
				var days []timeline.Day
				for d := range set {
					days = append(days, d)
				}
				sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
				histories = append(histories, changecube.NewHistory(
					changecube.FieldKey{Entity: ent, Property: prop}, days))
			}
		}
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

// mutateSet applies a random day-append delta to a few fields and returns
// the updated set plus the dirty-field map a live ingester would carry.
func mutateSet(t *testing.T, rng *rand.Rand, hs *changecube.HistorySet, dayRange int) (*changecube.HistorySet, map[changecube.FieldKey]bool) {
	t.Helper()
	histories := hs.Histories()
	updates := make(map[changecube.FieldKey][]timeline.Day)
	dirty := make(map[changecube.FieldKey]bool)
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		h := histories[rng.Intn(len(histories))]
		updates[h.Field] = append(updates[h.Field], timeline.Day(rng.Intn(dayRange)))
		dirty[h.Field] = true
	}
	next, err := hs.MergeDays(updates)
	if err != nil {
		t.Fatal(err)
	}
	return next, dirty
}

// TestIncrementalMatchesColdRetrain drives a sequence of deltas through
// TrainIncremental and asserts, at every step, bit-identical rules to a
// cold Train over the same snapshot — including steps where the span's end
// advances, which can complete a previously partial week and dirty
// templates whose fields were never touched.
func TestIncrementalMatchesColdRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := lenientConfig()
	hs := randomTemplateSet(t, rng, 5, 4, 4, 90)
	span := timeline.NewSpan(0, 70)

	prevP, stats, err := TrainIncremental(context.Background(), hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || stats.FullReason != "cold" {
		t.Fatalf("first train stats = %+v, want cold full rebuild", stats)
	}
	prev := Previous{Predictor: prevP, Span: span}
	reusedTotal, rulesSeen := 0, 0
	for step := 0; step < 12; step++ {
		next, dirty := mutateSet(t, rng, hs, 100)
		hs = next
		if step%3 == 2 {
			span = timeline.NewSpan(span.Start, span.End+4) // live span advance
		}
		inc, stats, err := TrainIncremental(context.Background(), hs, span, cfg, prev, changecube.Delta{Changed: dirty})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Train(hs, span, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc.Rules(), cold.Rules()) {
			t.Fatalf("step %d: incremental %v != cold %v (stats %+v)",
				step, inc.Rules(), cold.Rules(), stats)
		}
		if stats.Full {
			t.Fatalf("step %d: unexpected full rebuild %+v", step, stats)
		}
		if stats.TemplatesReused+stats.TemplatesRetrained != stats.TemplatesTotal {
			t.Fatalf("template accounting off: %+v", stats)
		}
		reusedTotal += stats.TemplatesReused
		rulesSeen += inc.NumRules()
		prev = Previous{Predictor: inc, Span: span}
	}
	if reusedTotal == 0 {
		t.Fatal("incremental retraining never reused a template")
	}
	if rulesSeen == 0 {
		t.Fatal("corpus never produced a rule; the equivalence was vacuous")
	}
}

// TestIncrementalFullFallbacks: every coupling that breaks template
// locality must force a full rebuild — and still match a cold Train.
func TestIncrementalFullFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := lenientConfig()
	hs := randomTemplateSet(t, rng, 4, 4, 4, 90)
	span := timeline.NewSpan(7, 70)
	p1, _, err := TrainIncremental(context.Background(), hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	next, dirty := mutateSet(t, rng, hs, 90)
	prev := Previous{Predictor: p1, Span: span}

	cases := []struct {
		name   string
		span   timeline.Span
		mutate func(*Config)
		force  bool
		reason string
	}{
		{name: "forced", span: span, force: true, reason: "forced"},
		{name: "span_start", span: timeline.NewSpan(0, 70), reason: "span_start"},
		{name: "global_scope", span: span, mutate: func(c *Config) { c.SupportScope = Global }, reason: "global_scope"},
		{name: "span_tail", span: timeline.NewSpan(7, 77), mutate: func(c *Config) { c.ValidationScheme = HoldoutTail }, reason: "span_tail"},
	}
	for _, tc := range cases {
		c := cfg
		if tc.mutate != nil {
			tc.mutate(&c)
		}
		delta := changecube.Delta{Changed: dirty}
		if tc.force {
			delta = changecube.Delta{Full: "forced"}
		}
		inc, stats, err := TrainIncremental(context.Background(), next, tc.span, c, prev, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Full || stats.FullReason != tc.reason {
			t.Fatalf("%s: stats = %+v, want full rebuild with reason %q", tc.name, stats, tc.reason)
		}
		cold, err := Train(next, tc.span, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc.Rules(), cold.Rules()) {
			t.Fatalf("%s: full-fallback rules diverged from cold train", tc.name)
		}
	}
}

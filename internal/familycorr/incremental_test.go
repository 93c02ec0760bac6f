package familycorr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/timeline"
)

func lenientConfig() Config {
	return Config{
		Correlation: correlation.Config{
			Theta:         0.6,
			Norm:          correlation.NormOverlap,
			ToleranceDays: 1,
		},
		MinMembers:       2,
		MinPooledChanges: 3,
	}
}

// familyCorpus builds nFamilies annual-event families ("Cup A 2001",
// "Cup A 2002", …) of membersPer member pages each, with a handful of
// properties whose change days are random but family-correlated often
// enough for rules to appear under the lenient config.
func familyCorpus(t *testing.T, rng *rand.Rand, nFamilies, membersPer, dayRange int) *changecube.HistorySet {
	t.Helper()
	c := changecube.New()
	var histories []changecube.History
	for fam := 0; fam < nFamilies; fam++ {
		for m := 0; m < membersPer; m++ {
			e := c.AddEntityNamed("infobox event", fmt.Sprintf("Cup %c %d", 'A'+fam, 2001+m))
			// Shared event days make properties within a family co-change.
			var event []timeline.Day
			for n := 2 + rng.Intn(4); n > 0; n-- {
				event = append(event, timeline.Day(rng.Intn(dayRange)))
			}
			for p := 0; p < 3; p++ {
				prop := changecube.PropertyID(c.Properties.Intern(fmt.Sprintf("p%d", p)))
				set := map[timeline.Day]bool{}
				for _, d := range event {
					if rng.Intn(4) > 0 {
						set[d] = true
					}
				}
				for n := rng.Intn(3); n > 0; n-- {
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
					changecube.FieldKey{Entity: e, Property: prop}, days))
			}
		}
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

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

// addSeasonPage mutates the shared cube by adding next year's page to a
// random family and gives it one changed field — the live path where a
// family gains a member after training.
func addSeasonPage(t *testing.T, rng *rand.Rand, hs *changecube.HistorySet, year, dayRange int,
	dirty map[changecube.FieldKey]bool) *changecube.HistorySet {
	t.Helper()
	cube := hs.Cube()
	fam := rng.Intn(3)
	e := cube.AddEntityNamed("infobox event", fmt.Sprintf("Cup %c %d", 'A'+fam, year))
	prop := changecube.PropertyID(cube.Properties.Intern("p0"))
	f := changecube.FieldKey{Entity: e, Property: prop}
	next, err := hs.MergeDays(map[changecube.FieldKey][]timeline.Day{
		f: {timeline.Day(rng.Intn(dayRange))},
	})
	if err != nil {
		t.Fatal(err)
	}
	dirty[f] = true
	return next
}

// TestIncrementalMatchesColdRetrain: after every delta — including new
// member pages joining existing families — the incremental predictor must
// be DeepEqual, member index and all, to a cold Train over the same
// snapshot.
func TestIncrementalMatchesColdRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cfg := lenientConfig()
	hs := familyCorpus(t, rng, 6, 3, 120)
	span := timeline.NewSpan(0, 120)

	prevP, stats, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || stats.FullReason != "cold" {
		t.Fatalf("first train stats = %+v, want cold full rebuild", stats)
	}
	prev := Previous{Predictor: prevP, Span: span, Entities: hs.Cube().NumEntities()}
	reusedTotal, rulesSeen := 0, 0
	for step := 0; step < 12; step++ {
		next, dirty := mutateSet(t, rng, hs, 120)
		if step%4 == 3 {
			next = addSeasonPage(t, rng, next, 2010+step, 120, dirty)
		}
		hs = next
		inc, stats, err := TrainIncremental(hs, span, cfg, prev, changecube.Delta{Changed: dirty})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Train(hs, span, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc, cold) {
			t.Fatalf("step %d: incremental predictor != cold predictor (stats %+v)\ninc rules:  %v\ncold rules: %v",
				step, stats, inc.Rules(), cold.Rules())
		}
		if stats.Full {
			t.Fatalf("step %d: unexpected full rebuild %+v", step, stats)
		}
		if stats.FamiliesReused+stats.FamiliesRetrained != stats.FamiliesTotal {
			t.Fatalf("family accounting off: %+v", stats)
		}
		reusedTotal += stats.FamiliesReused
		rulesSeen += inc.NumRules()
		prev = Previous{Predictor: inc, Span: span, Entities: hs.Cube().NumEntities()}
	}
	if reusedTotal == 0 {
		t.Fatal("incremental retraining never reused a family")
	}
	if rulesSeen == 0 {
		t.Fatal("corpus never produced a rule; the equivalence was vacuous")
	}
}

// TestIncrementalFullFallbacks: a moved span reuses every family whose
// members' in-span days stayed the same and re-searches the rest, untouched
// fields included; a moved span under NormLength, a FromRules predictor (no
// member index), or the escape hatch rebuild everything. All must match a
// cold Train.
func TestIncrementalFullFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	cfg := lenientConfig()
	hs := familyCorpus(t, rng, 5, 3, 120)
	span := timeline.NewSpan(0, 120)
	next, dirty := mutateSet(t, rng, hs, 120)
	// Give every field of one untouched member two co-changes past the
	// span's end, in both snapshots: they enter its family's pooled window
	// only when the span grows.
	late := make(map[changecube.FieldKey][]timeline.Day)
	for _, h := range hs.Histories() {
		if h.Field.Entity == hs.Histories()[0].Field.Entity {
			late[h.Field] = []timeline.Day{130, 140}
		}
	}
	for f := range late {
		if dirty[f] {
			t.Fatalf("fixture: late field %v is also in the delta", f)
		}
	}
	var err error
	if hs, err = hs.MergeDays(late); err != nil {
		t.Fatal(err)
	}
	if next, err = next.MergeDays(late); err != nil {
		t.Fatal(err)
	}
	p1, _, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	entities := hs.Cube().NumEntities()
	lengthCfg := cfg
	lengthCfg.Correlation.Norm = correlation.NormLength

	for _, tc := range []struct {
		name   string
		span   timeline.Span
		cfg    Config
		prev   Previous
		force  bool
		reason string
	}{
		{name: "span end", span: timeline.NewSpan(0, 150), cfg: cfg,
			prev: Previous{Predictor: p1, Span: span, Entities: entities}},
		{name: "span start", span: timeline.NewSpan(30, 120), cfg: cfg,
			prev: Previous{Predictor: p1, Span: span, Entities: entities}},
		{name: "norm_span", span: timeline.NewSpan(0, 150), cfg: lengthCfg,
			prev: Previous{Predictor: p1, Span: span, Entities: entities}, reason: "norm_span"},
		{name: "forced", span: span, cfg: cfg,
			prev: Previous{Predictor: p1, Span: span, Entities: entities}, force: true, reason: "forced"},
		{name: "from_rules", span: span, cfg: cfg,
			prev: Previous{Predictor: FromRules(p1.Rules()), Span: span, Entities: entities}},
	} {
		delta := changecube.Delta{Changed: dirty}
		if tc.force {
			delta = changecube.Delta{Full: "forced"}
		}
		inc, stats, err := TrainIncremental(next, tc.span, tc.cfg, tc.prev, delta)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Full != (tc.reason != "") || stats.FullReason != tc.reason {
			t.Fatalf("%s: stats = %+v, want full rebuild reason %q", tc.name, stats, tc.reason)
		}
		cold, err := Train(next, tc.span, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc, cold) {
			t.Fatalf("%s: predictor diverged from cold train (stats %+v)\ninc rules:  %v\ncold rules: %v",
				tc.name, stats, inc.Rules(), cold.Rules())
		}
		if tc.name == "span end" && stats.FamiliesReused == 0 {
			t.Fatalf("%s: a grown span with a small delta reused no family: %+v", tc.name, stats)
		}
	}
}

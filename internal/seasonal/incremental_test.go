package seasonal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// randomSeasonalSet builds nFields fields, most with a yearly rhythm
// (base day-of-year ± jitter across several years) plus noise, some pure
// noise — enough structure that Train finds anchors to reuse.
func randomSeasonalSet(t *testing.T, rng *rand.Rand, nFields, years int) *changecube.HistorySet {
	t.Helper()
	c := changecube.New()
	var histories []changecube.History
	for i := 0; i < nFields; i++ {
		e := c.AddEntityNamed("infobox season", fmt.Sprintf("Page %d", i))
		prop := changecube.PropertyID(c.Properties.Intern("prop"))
		set := map[timeline.Day]bool{}
		if i%4 != 3 { // three in four fields carry a yearly rhythm
			base := rng.Intn(330)
			for y := 0; y < years; y++ {
				set[timeline.Day(y*365+base+rng.Intn(7)-3)] = true
			}
		}
		for n := rng.Intn(6); n > 0; n-- {
			set[timeline.Day(rng.Intn(years*365))] = true
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

// TestIncrementalMatchesColdRetrain: after every delta the incremental
// predictor must be DeepEqual — anchors, tolerances, everything — to a
// cold Train over the same snapshot.
func TestIncrementalMatchesColdRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cfg := Default()
	hs := randomSeasonalSet(t, rng, 30, 5)
	span := timeline.NewSpan(0, 5*365)

	prevP, stats, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || stats.FullReason != "cold" {
		t.Fatalf("first train stats = %+v, want cold full rebuild", stats)
	}
	prev := Previous{Predictor: prevP, Span: span}
	anchorsSeen := 0
	for step := 0; step < 12; step++ {
		next, dirty := mutateSet(t, rng, hs, 5*365)
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
			t.Fatalf("step %d: incremental predictor != cold predictor (stats %+v)", step, stats)
		}
		if stats.Full {
			t.Fatalf("step %d: unexpected full rebuild %+v", step, stats)
		}
		if stats.FieldsRecomputed == 0 {
			t.Fatalf("step %d: dirty fields but nothing recomputed", step)
		}
		anchorsSeen += len(inc.anchors)
		prev = Previous{Predictor: inc, Span: span}
	}
	if anchorsSeen == 0 {
		t.Fatal("corpus never produced an anchor; the equivalence was vacuous")
	}
}

// TestIncrementalSpanAndForceFallbacks: a moved span reuses every field
// whose in-span days stayed the same and re-extracts the rest, untouched
// fields included; the escape hatch rebuilds everything. Both must match
// a cold Train.
func TestIncrementalSpanAndForceFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	cfg := Default()
	hs := randomSeasonalSet(t, rng, 20, 4)
	span := timeline.NewSpan(0, 4*365)
	p1, _, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	next, dirty := mutateSet(t, rng, hs, 4*365)
	prev := Previous{Predictor: p1, Span: span}

	for _, tc := range []struct {
		name   string
		span   timeline.Span
		force  bool
		reason string
	}{
		{name: "span end", span: timeline.NewSpan(0, 4*365+30)},
		// Dropping the first 200 days takes a year off every field whose
		// first-year change falls there, touched or not.
		{name: "span start", span: timeline.NewSpan(200, 4*365)},
		{name: "forced", span: span, force: true, reason: "forced"},
	} {
		delta := changecube.Delta{Changed: dirty}
		if tc.force {
			delta = changecube.Delta{Full: "forced"}
		}
		inc, stats, err := TrainIncremental(next, tc.span, cfg, prev, delta)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Full != tc.force || stats.FullReason != tc.reason {
			t.Fatalf("%s: stats = %+v, want full rebuild %v with reason %q", tc.name, stats, tc.force, tc.reason)
		}
		cold, err := Train(next, tc.span, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc, cold) {
			t.Fatalf("%s: predictor diverged from cold train (stats %+v)", tc.name, stats)
		}
		if tc.force {
			continue
		}
		moved := 0
		for _, h := range next.Histories() {
			if !dirty[h.Field] && !h.SameIn(span, tc.span) {
				moved++
			}
		}
		if want := len(dirty) + moved; stats.FieldsRecomputed != want || want == next.Len() {
			t.Fatalf("%s: recomputed %d of %d fields, want %d (%d changed, %d moved in-span days)",
				tc.name, stats.FieldsRecomputed, next.Len(), want, len(dirty), moved)
		}
		if tc.span.Start != span.Start && moved == 0 {
			t.Fatalf("%s: no untouched field's in-span days moved; the row is vacuous", tc.name)
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// detectStaleReference is DetectStale without the evidence index: every
// history that did not change in the window, then every history-less
// consequent, asks both paper predictors for their evidence through a
// leakage-controlled predict.Context, and the alerts are sorted by field
// at the end. It shares nothing with the index but the summary helpers,
// which Explain uses too.
func detectStaleReference(d *Detector, asOf timeline.Day, windowSize int) []StaleAlert {
	if windowSize <= 0 {
		return nil
	}
	w := staleWindow(asOf, windowSize)
	var alerts []StaleAlert
	scan := func(field changecube.FieldKey) {
		ctx := predict.NewContext(d.histories, field, w)
		var sources []string
		explanation := ""
		if partners := d.fieldCorr.Explain(ctx); len(partners) > 0 {
			sources = append(sources, d.fieldCorr.Name())
			explanation = d.explainCorrelation(partners[0].Property, len(partners))
		}
		if antes := d.assocRules.Explain(ctx); len(antes) > 0 {
			sources = append(sources, d.assocRules.Name())
			if explanation != "" {
				explanation += "; "
			}
			explanation += d.explainRule(field, antes[0])
		}
		if len(sources) == 0 {
			return
		}
		alerts = append(alerts, StaleAlert{
			Field:       field,
			Window:      w,
			Sources:     sources,
			Explanation: explanation,
		})
	}
	for _, h := range d.histories.Histories() {
		if h.ChangedIn(w.Span) {
			continue // the field was updated; nothing is stale
		}
		scan(h.Field)
	}
	for _, field := range historylessReference(d) {
		scan(field)
	}
	sort.Slice(alerts, func(i, j int) bool {
		a, b := alerts[i].Field, alerts[j].Field
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		return a.Property < b.Property
	})
	return alerts
}

// historylessReference computes HistorylessConsequents without the
// evidence index: a map of consequents per template, a seen set, one Get
// per candidate, and a final sort.
func historylessReference(d *Detector) []changecube.FieldKey {
	consequents := make(map[changecube.TemplateID][]changecube.PropertyID)
	for _, r := range d.assocRules.Rules() {
		consequents[r.Template] = append(consequents[r.Template], r.Consequent)
	}
	cube := d.histories.Cube()
	seen := make(map[changecube.FieldKey]bool)
	var fields []changecube.FieldKey
	prev := changecube.EntityID(-1)
	for _, h := range d.histories.Histories() {
		entity := h.Field.Entity
		if entity == prev {
			continue
		}
		prev = entity
		for _, prop := range consequents[cube.Template(entity)] {
			field := changecube.FieldKey{Entity: entity, Property: prop}
			if seen[field] {
				continue
			}
			seen[field] = true
			if _, known := d.histories.Get(field); known {
				continue
			}
			fields = append(fields, field)
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		if fields[i].Entity != fields[j].Entity {
			return fields[i].Entity < fields[j].Entity
		}
		return fields[i].Property < fields[j].Property
	})
	return fields
}

// TestDetectStaleMatchesReference is the evidence index's correctness
// contract: DetectStale returns alerts reflect.DeepEqual to the map-walk
// reference for (asOf, window) keys before, on, inside and past the data
// span and the index's first and last day, with random windows of 1 to
// 3650 days. It holds after an Ingest rebuilt the index (one that gives a
// history-less consequent its first history, and one that adds days far
// outside the index's range) and for a detector without evidence.
func TestDetectStaleMatchesReference(t *testing.T) {
	det, _ := detector(t)
	if len(det.HistorylessConsequents()) == 0 {
		t.Fatal("corpus has no history-less consequents; the test cannot cover them")
	}
	rng := rand.New(rand.NewSource(19))
	ingested := reload(t, det)
	if err := ingested.Ingest(randomBatch(rng, ingested, 400)); err != nil {
		t.Fatal(err)
	}
	// Days about a year before the data and 1<<30 days after it: the
	// index must not be sized by the day range.
	outside := reload(t, det)
	batch := randomBatch(rng, outside, 200)
	data := det.Histories().Span()
	for i := range batch {
		day := data.Start - 400 + timeline.Day(rng.Intn(60))
		if i%2 == 1 {
			day = data.End + 1<<30 - timeline.Day(rng.Intn(60))
		}
		batch[i].Time = day.Unix()
	}
	if err := outside.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if days := outside.evidence.days; days[0] >= det.evidence.days[0] || days[len(days)-1] < 1<<30 {
		t.Fatalf("ingested days span [%v, %v]; the batch did not reach outside the index", days[0], days[len(days)-1])
	}
	empty := *det
	empty.fieldCorr, empty.assocRules = correlation.FromRules(nil), assocrules.FromRules(nil)
	empty.evidence = compileEvidence(empty.histories, empty.fieldCorr, empty.assocRules)

	windows := []int{1, 7, 30, 365, 3650}
	var flagged, historyless, both int
	for _, tc := range []struct {
		name string
		d    *Detector
	}{
		{"trained", det},
		{"ingested", ingested},
		{"outside", outside},
		{"no evidence", &empty},
	} {
		noHistory := make(map[changecube.FieldKey]bool)
		for _, f := range historylessReference(tc.d) {
			noHistory[f] = true
		}
		check := func(asOf timeline.Day, window int) {
			t.Helper()
			want := detectStaleReference(tc.d, asOf, window)
			got := tc.d.DetectStale(asOf, window)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: DetectStale(%v, %d): %d alerts, reference %d\n got %+v\nwant %+v",
					tc.name, asOf, window, len(got), len(want), firstDiff(got, want), firstDiff(want, got))
			}
			for _, a := range want {
				flagged++
				if noHistory[a.Field] {
					historyless++
				}
				if len(a.Sources) == 2 {
					both++
				}
			}
		}
		span := tc.d.Histories().Span()
		edges := []timeline.Day{span.Start - 1, span.End, span.End + 400}
		days := tc.d.evidence.days
		if len(days) > 0 {
			first, last := days[0], days[len(days)-1]
			edges = append(edges, first-1, first, first+1, last-1, last, last+1)
		} else if tc.d != &empty {
			t.Fatalf("%s: empty day index", tc.name)
		}
		for _, window := range append(windows, 0, -1) {
			check(span.Start+timeline.Day(window), window)
			for _, asOf := range edges {
				check(asOf, window)
			}
		}
		for i := 0; i < 60; i++ {
			asOf := span.Start - 200 + timeline.Day(rng.Intn(min(span.Len(), 5000)+600))
			if len(days) > 0 && i%2 == 1 {
				asOf = days[rng.Intn(len(days))] + timeline.Day(rng.Intn(3651))
			}
			check(asOf, 1+rng.Intn(3650))
		}
	}
	if len(empty.evidence.targets) != 0 {
		t.Fatalf("a detector without rules has %d evidence targets", len(empty.evidence.targets))
	}
	if flagged == 0 || historyless == 0 || both == 0 {
		t.Fatalf("reference flagged %d alerts, %d on history-less fields, %d from both predictors; "+
			"the keys do not exercise every path", flagged, historyless, both)
	}
}

// TestStaleWindowClamps: a window longer than the Day range reaches back
// to the range's first day instead of wrapping around, so 1<<32+7 days is
// not a 7-day window, in DetectStale and Explain alike.
func TestStaleWindowClamps(t *testing.T) {
	det, _ := detector(t)
	asOf := det.Histories().Span().End
	for _, window := range []int{1<<32 + 7, math.MaxInt} {
		want := timeline.Window{Span: timeline.NewSpan(math.MinInt32, asOf)}
		if got := staleWindow(asOf, window); got != want {
			t.Fatalf("staleWindow(%v, %d) = %v, want %v", asOf, window, got, want)
		}
		alerts := det.DetectStale(asOf, window)
		if len(alerts) == 0 {
			t.Fatalf("DetectStale(%v, %d): no alerts; the test checks nothing", asOf, window)
		}
		if !reflect.DeepEqual(alerts, detectStaleReference(det, asOf, window)) {
			t.Fatalf("DetectStale(%v, %d) differs from the reference", asOf, window)
		}
		for _, a := range alerts {
			if a.Window != want {
				t.Fatalf("DetectStale(%v, %d): alert window %v, want %v", asOf, window, a.Window, want)
			}
		}
		if ex := det.Explain(alerts[0].Field, asOf, window); ex.Window != want || !ex.Stale {
			t.Fatalf("Explain(%v, %d): window %v stale %v, want %v and stale", asOf, window, ex.Window, ex.Stale, want)
		}
	}
	if got := staleWindow(math.MinInt32+3, 7).Start; got != math.MinInt32 {
		t.Fatalf("window start %d before the Day range", got)
	}
}

// randomBatch draws n raw updates for ingestion: days inside and just past
// the data span, on random histories and on history-less consequents.
func randomBatch(rng *rand.Rand, d *Detector, n int) []changecube.Change {
	histories := d.Histories().Histories()
	historyless := d.HistorylessConsequents()
	span := d.Histories().Span()
	batch := make([]changecube.Change, 0, n)
	for i := 0; i < n; i++ {
		field := histories[rng.Intn(len(histories))].Field
		if i%4 == 0 {
			field = historyless[rng.Intn(len(historyless))]
		}
		day := span.End - 30 + timeline.Day(rng.Intn(60))
		batch = append(batch, changecube.Change{
			Time:     day.Unix(),
			Entity:   field.Entity,
			Property: field.Property,
			Value:    string(rune('a' + i%26)),
			Kind:     changecube.Update,
		})
	}
	return batch
}

// firstDiff returns the first alert of a that b lacks, for failure
// messages.
func firstDiff(a, b []StaleAlert) *StaleAlert {
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			return &a[i]
		}
	}
	return nil
}

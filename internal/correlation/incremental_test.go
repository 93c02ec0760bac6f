package correlation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/timeline"
)

// randomHistorySet builds a cube with nPages pages of up to maxFields
// fields each, change days drawn from [0, dayRange).
func randomHistorySet(t *testing.T, rng *rand.Rand, nPages, maxFields, dayRange int) *changecube.HistorySet {
	t.Helper()
	c := changecube.New()
	var histories []changecube.History
	for p := 0; p < nPages; p++ {
		e := c.AddEntityNamed("infobox test", fmt.Sprintf("Page %d", p))
		nf := 1 + rng.Intn(maxFields)
		for f := 0; f < nf; f++ {
			prop := changecube.PropertyID(c.Properties.Intern(fmt.Sprintf("prop%d", f)))
			set := map[timeline.Day]bool{}
			for n := rng.Intn(12); n > 0; n-- {
				set[timeline.Day(rng.Intn(dayRange))] = true
			}
			var days []timeline.Day
			for d := range set {
				days = append(days, d)
			}
			if len(days) == 0 {
				continue
			}
			sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
			histories = append(histories, changecube.NewHistory(
				changecube.FieldKey{Entity: e, Property: prop}, days))
		}
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

// referenceTrain is the pre-optimization training loop: a full quadratic
// pairwise search per page through the public DistanceTolerant entry
// point, with no inverted-index pruning and no day-slice hoisting.
func referenceTrain(t *testing.T, hs *changecube.HistorySet, span timeline.Span, cfg Config) *Predictor {
	t.Helper()
	histories := hs.Histories()
	var rules []Rule
	for _, idxs := range hs.ByPage() {
		var elig []int
		for _, i := range idxs {
			if len(histories[i].In(span)) >= cfg.MinSpanChanges {
				elig = append(elig, i)
			}
		}
		if cfg.MaxFieldsPerPage > 0 && len(elig) > cfg.MaxFieldsPerPage {
			continue
		}
		for x := 0; x < len(elig); x++ {
			for y := x + 1; y < len(elig); y++ {
				a, b := histories[elig[x]], histories[elig[y]]
				d := DistanceTolerant(a, b, span, cfg.Norm, cfg.ToleranceDays)
				if d < cfg.Theta {
					rules = append(rules, Rule{A: a.Field, B: b.Field, Distance: d})
				}
			}
		}
	}
	return FromRules(rules)
}

// TestPrunedSearchMatchesFullPairwise is the fast path's correctness
// contract: the inverted-index candidate search (and the NormLength full
// path over hoisted slices) must produce rule sets reflect.DeepEqual —
// identical floats included — to the naive quadratic reference, across
// random histories, both norms, tolerances, thetas, and eligibility and
// page-size bounds.
func TestPrunedSearchMatchesFullPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 60; iter++ {
		hs := randomHistorySet(t, rng, 1+rng.Intn(6), 8, 60)
		span := timeline.NewSpan(timeline.Day(rng.Intn(10)), timeline.Day(30+rng.Intn(40)))
		cfg := Config{
			Theta:            []float64{0.1, 0.3, 0.5, 1.0}[rng.Intn(4)],
			Norm:             []Norm{NormOverlap, NormOverlap, NormLength}[rng.Intn(3)],
			ToleranceDays:    rng.Intn(3),
			MinSpanChanges:   rng.Intn(4),
			MaxFieldsPerPage: []int{0, 0, 3}[rng.Intn(3)],
		}
		got, err := Train(hs, span, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTrain(t, hs, span, cfg)
		if !reflect.DeepEqual(got.Rules(), want.Rules()) {
			t.Fatalf("iter %d: fast %v != reference %v (cfg %+v span %v)",
				iter, got.Rules(), want.Rules(), cfg, span)
		}
	}
}

func counterValue(name string, labels obs.Labels) uint64 {
	return obs.Default.Counter(name, labels).Value()
}

// TestSkippedPagesCounter: pages dropped by MaxFieldsPerPage must be
// visible in wikistale_train_pages_skipped_total, not silently vanish.
func TestSkippedPagesCounter(t *testing.T) {
	hs, _ := corpus(t)
	labels := obs.Labels{"predictor": "correlation"}
	before := counterValue(obs.PagesSkippedTotal, labels)
	if _, err := Train(hs, timeline.NewSpan(0, 2000), Config{Theta: 0.1, MaxFieldsPerPage: 2}); err != nil {
		t.Fatal(err)
	}
	// corpus has one 4-field page (skipped) and one 1-field page (kept).
	if got := counterValue(obs.PagesSkippedTotal, labels) - before; got != 1 {
		t.Fatalf("pages_skipped_total delta = %d, want 1", got)
	}
	before = counterValue(obs.PagesSkippedTotal, labels)
	if _, err := Train(hs, timeline.NewSpan(0, 2000), Default()); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(obs.PagesSkippedTotal, labels) - before; got != 0 {
		t.Fatalf("unbounded train moved pages_skipped_total by %d", got)
	}
}

// mutateHistories applies a random day-append delta to a few fields and
// returns the updated set plus the dirty-field map a live ingester would
// accumulate.
func mutateHistories(t *testing.T, rng *rand.Rand, hs *changecube.HistorySet, dayRange int) (*changecube.HistorySet, map[changecube.FieldKey]bool) {
	t.Helper()
	histories := hs.Histories()
	updates := make(map[changecube.FieldKey][]timeline.Day)
	dirty := make(map[changecube.FieldKey]bool)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		h := histories[rng.Intn(len(histories))]
		d := timeline.Day(rng.Intn(dayRange))
		updates[h.Field] = append(updates[h.Field], d)
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
// cold Train over the same snapshot — including steps where the training
// span advances, which can dirty pages whose fields were never touched.
func TestIncrementalMatchesColdRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, norm := range []Norm{NormOverlap, NormLength} {
		cfg := Config{Theta: 0.3, Norm: norm, MinSpanChanges: 2}
		hs := randomHistorySet(t, rng, 8, 6, 50)
		span := timeline.NewSpan(0, 40)
		prevP, stats, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Full || stats.FullReason != "cold" {
			t.Fatalf("first train stats = %+v, want cold full rebuild", stats)
		}
		prev := Previous{Predictor: prevP, Span: span}
		reusedTotal := 0
		for step := 0; step < 12; step++ {
			next, dirty := mutateHistories(t, rng, hs, 70)
			hs = next
			if step%3 == 2 {
				span = timeline.NewSpan(span.Start, span.End+5) // live span advance
			}
			inc, stats, err := TrainIncremental(hs, span, cfg, prev, changecube.Delta{Changed: dirty})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Train(hs, span, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inc.Rules(), cold.Rules()) {
				t.Fatalf("norm %v step %d: incremental %v != cold %v (stats %+v)",
					norm, step, inc.Rules(), cold.Rules(), stats)
			}
			if norm != NormOverlap && span != prev.Span {
				if !stats.Full || stats.FullReason != "norm_span" {
					t.Fatalf("norm %v step %d: span moved but stats = %+v", norm, step, stats)
				}
			} else if stats.Full {
				t.Fatalf("norm %v step %d: unexpected full rebuild %+v", norm, step, stats)
			} else if stats.PagesReused+stats.PagesRetrained != stats.PagesTotal {
				t.Fatalf("page accounting off: %+v", stats)
			}
			reusedTotal += stats.PagesReused
			prev = Previous{Predictor: inc, Span: span}
		}
		if reusedTotal == 0 {
			t.Fatalf("norm %v: incremental retraining never reused a page", norm)
		}
	}
}

// TestIncrementalSpanMoveRetrainsUntouchedPages moves the training span
// without touching two pages, so only their in-span days change: one page
// gains a rule (days leave the span at its start), one loses its rule (days
// enter at its end). A third page is touched by the delta. The incremental
// result must equal a cold Train over the moved span; reusing the two
// untouched pages' rules would keep the lost one and miss the gained one.
func TestIncrementalSpanMoveRetrainsUntouchedPages(t *testing.T) {
	c := changecube.New()
	a := changecube.PropertyID(c.Properties.Intern("a"))
	b := changecube.PropertyID(c.Properties.Intern("b"))
	gainE := c.AddEntityNamed("infobox test", "Gain")
	loseE := c.AddEntityNamed("infobox test", "Lose")
	touchedE := c.AddEntityNamed("infobox test", "Touched")
	gain := changecube.FieldKey{Entity: gainE, Property: a}
	lose := changecube.FieldKey{Entity: loseE, Property: a}
	touched := changecube.FieldKey{Entity: touchedE, Property: a}
	days := map[changecube.FieldKey][]timeline.Day{
		gain:                            {2, 10, 20, 30},
		{Entity: gainE, Property: b}:    {3, 10, 20, 30},
		lose:                            {10, 20, 30, 42, 44},
		{Entity: loseE, Property: b}:    {10, 20, 30},
		touched:                         {10, 20},
		{Entity: touchedE, Property: b}: {10, 20},
	}
	var histories []changecube.History
	for f, d := range days {
		histories = append(histories, changecube.NewHistory(f, d))
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Theta: 0.2, Norm: NormOverlap, MinSpanChanges: 2}
	span := timeline.NewSpan(0, 40)
	prevP, _, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	next, err := hs.MergeDays(map[changecube.FieldKey][]timeline.Day{touched: {25}})
	if err != nil {
		t.Fatal(err)
	}
	moved := timeline.NewSpan(5, 45)
	inc, stats, err := TrainIncremental(next, moved, cfg, Previous{Predictor: prevP, Span: span},
		changecube.Delta{Changed: map[changecube.FieldKey]bool{touched: true}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Train(next, moved, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.Rules(), cold.Rules()) {
		t.Fatalf("incremental %v != cold %v (stats %+v)", inc.Rules(), cold.Rules(), stats)
	}
	if !prevP.Covers(lose) || prevP.Covers(gain) || cold.Covers(lose) || !cold.Covers(gain) {
		t.Fatalf("span move did not flip the untouched pages' rules: before %v, after %v",
			prevP.Rules(), cold.Rules())
	}
	if stats.Full || stats.PagesRetrained != 3 {
		t.Fatalf("stats = %+v, want an incremental retrain of all 3 pages", stats)
	}
}

// TestIncrementalForcedFullRebuild: the escape hatch re-searches every
// page and still produces identical rules.
func TestIncrementalForcedFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	cfg := Config{Theta: 0.4, Norm: NormOverlap, MinSpanChanges: 1}
	hs := randomHistorySet(t, rng, 6, 5, 40)
	span := timeline.NewSpan(0, 40)
	p1, _, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	next, _ := mutateHistories(t, rng, hs, 40)
	forced, stats, err := TrainIncremental(next, span, cfg, Previous{Predictor: p1, Span: span}, changecube.Delta{Full: "forced"})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || stats.FullReason != "forced" || stats.PagesReused != 0 {
		t.Fatalf("forced rebuild stats = %+v", stats)
	}
	cold, err := Train(next, span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forced.Rules(), cold.Rules()) {
		t.Fatalf("forced rebuild diverged: %v != %v", forced.Rules(), cold.Rules())
	}
}

// TestIncrementalMetrics: the wikistale_train_incremental_* counters must
// reflect what the trainer did (core sets the dirty-fields gauge).
func TestIncrementalMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	cfg := Config{Theta: 0.3, Norm: NormOverlap, MinSpanChanges: 1}
	hs := randomHistorySet(t, rng, 10, 4, 30)
	span := timeline.NewSpan(0, 30)

	coldBefore := counterValue(obs.IncrementalFullTotal, obs.Labels{"reason": "cold"})
	p1, _, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	if d := counterValue(obs.IncrementalFullTotal, obs.Labels{"reason": "cold"}) - coldBefore; d != 1 {
		t.Fatalf("cold full_rebuilds delta = %d, want 1", d)
	}

	next, dirty := mutateHistories(t, rng, hs, 30)
	incBefore := counterValue(obs.IncrementalRetrainsTotal, nil)
	reusedBefore := counterValue(obs.IncrementalPagesReusedTotal, nil)
	_, stats, err := TrainIncremental(next, span, cfg, Previous{Predictor: p1, Span: span}, changecube.Delta{Changed: dirty})
	if err != nil {
		t.Fatal(err)
	}
	if d := counterValue(obs.IncrementalRetrainsTotal, nil) - incBefore; d != 1 {
		t.Fatalf("incremental_retrains delta = %d, want 1", d)
	}
	if d := counterValue(obs.IncrementalPagesReusedTotal, nil) - reusedBefore; d != uint64(stats.PagesReused) {
		t.Fatalf("pages_reused delta = %d, want %d", d, stats.PagesReused)
	}
	if stats.PagesReused == 0 {
		t.Fatalf("10-page set with ≤3 dirty fields reused nothing: %+v", stats)
	}
}

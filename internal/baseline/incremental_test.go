package baseline

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

func randomThresholdSet(t *testing.T, rng *rand.Rand, nFields, dayRange int) *changecube.HistorySet {
	t.Helper()
	c := changecube.New()
	var histories []changecube.History
	for i := 0; i < nFields; i++ {
		e := c.AddEntityNamed("infobox test", fmt.Sprintf("Page %d", i))
		prop := changecube.PropertyID(c.Properties.Intern("prop"))
		set := map[timeline.Day]bool{}
		for n := 1 + rng.Intn(25); n > 0; n-- {
			set[timeline.Day(rng.Intn(dayRange))] = true
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

// TestThresholdIncrementalMatchesColdRetrain: after every delta the
// incremental threshold baseline must be DeepEqual to a cold
// TrainThreshold over the same snapshot.
func TestThresholdIncrementalMatchesColdRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	sizes := []int{7, 30, 365}
	const fraction = 0.5
	hs := randomThresholdSet(t, rng, 25, 200)
	valSpan := timeline.NewSpan(20, 180)

	prevP, stats, err := TrainThresholdIncremental(hs, valSpan, sizes, fraction, ThresholdPrevious{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || stats.FullReason != "cold" {
		t.Fatalf("first train stats = %+v, want cold full rebuild", stats)
	}
	prev := ThresholdPrevious{Predictor: prevP, ValSpan: valSpan}
	membersSeen := 0
	for step := 0; step < 12; step++ {
		next, dirty := mutateSet(t, rng, hs, 200)
		hs = next
		inc, stats, err := TrainThresholdIncremental(hs, valSpan, sizes, fraction, prev, changecube.Delta{Changed: dirty})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := TrainThreshold(hs, valSpan, sizes, fraction)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc, cold) {
			t.Fatalf("step %d: incremental threshold != cold threshold (stats %+v)", step, stats)
		}
		if stats.Full {
			t.Fatalf("step %d: unexpected full rebuild %+v", step, stats)
		}
		if stats.FieldsRecomputed != len(dirty) {
			t.Fatalf("step %d: recomputed %d fields, want %d", step, stats.FieldsRecomputed, len(dirty))
		}
		for _, set := range inc.always {
			membersSeen += len(set)
		}
		prev = ThresholdPrevious{Predictor: inc, ValSpan: valSpan}
	}
	if membersSeen == 0 {
		t.Fatal("threshold sets stayed empty; the equivalence was vacuous")
	}
}

// TestThresholdIncrementalSpanAndForceFallbacks: a moved validation span
// or the escape hatch rebuilds everything and still matches a cold train.
func TestThresholdIncrementalSpanAndForceFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	sizes := []int{7, 30}
	const fraction = 0.4
	hs := randomThresholdSet(t, rng, 15, 150)
	valSpan := timeline.NewSpan(0, 120)
	p1, _, err := TrainThresholdIncremental(hs, valSpan, sizes, fraction, ThresholdPrevious{}, changecube.Cold)
	if err != nil {
		t.Fatal(err)
	}
	next, dirty := mutateSet(t, rng, hs, 150)
	prev := ThresholdPrevious{Predictor: p1, ValSpan: valSpan}

	for _, tc := range []struct {
		name   string
		span   timeline.Span
		force  bool
		reason string
	}{
		{name: "span", span: timeline.NewSpan(30, 150), reason: "span"},
		{name: "forced", span: valSpan, force: true, reason: "forced"},
	} {
		delta := changecube.Delta{Changed: dirty}
		if tc.force {
			delta = changecube.Delta{Full: "forced"}
		}
		inc, stats, err := TrainThresholdIncremental(next, tc.span, sizes, fraction, prev, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Full || stats.FullReason != tc.reason {
			t.Fatalf("%s: stats = %+v, want full rebuild with reason %q", tc.name, stats, tc.reason)
		}
		cold, err := TrainThreshold(next, tc.span, sizes, fraction)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc, cold) {
			t.Fatalf("%s: full-fallback threshold diverged from cold train", tc.name)
		}
	}
}

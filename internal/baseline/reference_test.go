package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// thresholdReference is the threshold baseline scored window by window:
// one ChangedIn query per tumbling window of every size, for every field.
func thresholdReference(hs *changecube.HistorySet, valSpan timeline.Span, sizes []int, fraction float64) map[int]map[changecube.FieldKey]bool {
	always := make(map[int]map[changecube.FieldKey]bool, len(sizes))
	for _, size := range sizes {
		windows := timeline.Tumbling(valSpan, size)
		need := int(math.Ceil(fraction * float64(len(windows))))
		if need < 1 {
			need = 1
		}
		set := make(map[changecube.FieldKey]bool)
		if len(windows) > 0 {
			for _, h := range hs.Histories() {
				changed := 0
				for _, w := range windows {
					if h.ChangedIn(w.Span) {
						changed++
					}
				}
				if changed >= need {
					set[h.Field] = true
				}
			}
		}
		always[size] = set
	}
	return always
}

// referenceCase draws a validation span, window sizes and a set whose
// days crowd the span's edges: its first and last day, the trailing
// partial window of every size, and the days just outside the span.
// Entities carry one field or many.
func referenceCase(t *testing.T, rng *rand.Rand) (*changecube.HistorySet, timeline.Span, []int) {
	t.Helper()
	start := timeline.Day(rng.Intn(40))
	valSpan := timeline.NewSpan(start, start+timeline.Day(rng.Intn(120)))
	sizes := []int{1 + rng.Intn(3), 5 + rng.Intn(5), 25 + rng.Intn(10), valSpan.Len() + 1 + rng.Intn(5)}
	edges := []timeline.Day{valSpan.Start, valSpan.End - 1, valSpan.Start - 1, valSpan.End}
	for _, size := range sizes[:3] {
		if n := valSpan.Len() / size; n > 0 {
			// The first day past the last whole window, and the last day of it.
			edges = append(edges, valSpan.Start+timeline.Day(n*size), valSpan.Start+timeline.Day(n*size-1))
		}
	}
	c := changecube.New()
	var histories []changecube.History
	for e := 0; e < 1+rng.Intn(12); e++ {
		ent := c.AddEntityNamed("infobox test", fmt.Sprintf("Page %d", e))
		nProps := 1
		if rng.Intn(2) == 0 {
			nProps = 2 + rng.Intn(6)
		}
		for p := 0; p < nProps; p++ {
			set := map[timeline.Day]bool{}
			for n := rng.Intn(3 + rng.Intn(valSpan.Len()+2)); n > 0; n-- {
				set[start-3+timeline.Day(rng.Intn(valSpan.Len()+6))] = true
			}
			for n := rng.Intn(3); n > 0; n-- {
				set[edges[rng.Intn(len(edges))]] = true
			}
			if len(set) == 0 {
				set[edges[rng.Intn(len(edges))]] = true
			}
			var days []timeline.Day
			for d := range set {
				days = append(days, d)
			}
			slices.Sort(days)
			prop := changecube.PropertyID(c.Properties.Intern(fmt.Sprintf("p%d", p)))
			histories = append(histories, changecube.NewHistory(changecube.FieldKey{Entity: ent, Property: prop}, days))
		}
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs, valSpan, sizes
}

// TestThresholdMatchesReference: the one-walk-per-field scoring yields the
// window-by-window reference's sets for every size, including fractions
// that hit a window count exactly and sizes longer than the span.
func TestThresholdMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nonEmpty := 0
	for c := 0; c < 240; c++ {
		hs, valSpan, sizes := referenceCase(t, rng)
		fraction := 0.05 + 0.95*rng.Float64()
		if n := valSpan.Len() / sizes[rng.Intn(len(sizes))]; n > 0 && rng.Intn(2) == 0 {
			fraction = float64(1+rng.Intn(n)) / float64(n) // fraction·n is an integer
		}
		want := thresholdReference(hs, valSpan, sizes, fraction)
		got, err := TrainThreshold(hs, valSpan, sizes, fraction)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.always, want) {
			t.Fatalf("case %d (span %v, sizes %v, fraction %v):\n got %v\nwant %v",
				c, valSpan, sizes, fraction, got.always, want)
		}
		for _, s := range want {
			if len(s) > 0 && len(s) < hs.Len() {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 100 {
		t.Fatalf("only %d (case, size) sets split the fields; the comparison is too weak", nonEmpty)
	}
}

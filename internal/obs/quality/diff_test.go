package quality

import (
	"fmt"
	"reflect"
	"testing"
)

func TestDiffCountsAndSamples(t *testing.T) {
	prev := RuleSets{
		Seq:    1,
		Corr:   map[string]float64{"a<->b": 1, "c<->d": 2},
		Assoc:  map[string]float64{"t: x->y": 0.9, "t: x->z": 0.5},
		Alerts: map[string]struct{}{"P1/f": {}, "P2/g": {}},
	}
	next := RuleSets{
		Seq:    2,
		AsOf:   "2024-01-02",
		Corr:   map[string]float64{"c<->d": 2, "e<->f": 3},
		Assoc:  map[string]float64{"t: x->y": 0.8, "t: u->v": 0.7},
		Alerts: map[string]struct{}{"P2/g": {}, "P3/h": {}},
	}
	d := Diff(prev, next, 0.05)
	if d.FromSeq != 1 || d.ToSeq != 2 || d.AsOf != "2024-01-02" {
		t.Fatalf("header %+v", d)
	}
	if d.CorrAdded != 1 || d.CorrRemoved != 1 {
		t.Fatalf("corr: %d added %d removed", d.CorrAdded, d.CorrRemoved)
	}
	if d.AssocAdded != 1 || d.AssocRemoved != 1 || d.AssocShifted != 1 {
		t.Fatalf("assoc: %+v", d)
	}
	if d.AlertsEntered != 1 || d.AlertsLeft != 1 {
		t.Fatalf("alerts: %d entered %d left", d.AlertsEntered, d.AlertsLeft)
	}
	if got := d.AssocShiftedSample; len(got) != 1 || got[0].Rule != "t: x->y" || got[0].From != 0.9 || got[0].To != 0.8 {
		t.Fatalf("shifted sample %+v", got)
	}
	if d.Total() != 7 {
		t.Fatalf("total %d, want 7", d.Total())
	}
	// A shift within epsilon does not count.
	next.Assoc["t: x->y"] = 0.87
	if d := Diff(prev, next, 0.05); d.AssocShifted != 0 {
		t.Fatalf("0.03 move counted as a shift at eps 0.05")
	}
}

// TestDiffDeterministic: identical inputs produce deeply equal diffs
// across runs — no map-iteration order leaks into samples.
func TestDiffDeterministic(t *testing.T) {
	build := func() RuleSets {
		rs := RuleSets{Seq: 2, Corr: map[string]float64{}, Assoc: map[string]float64{}, Alerts: map[string]struct{}{}}
		for i := 0; i < 50; i++ {
			rs.Corr[fmt.Sprintf("c%02d", i)] = float64(i)
			rs.Assoc[fmt.Sprintf("a%02d", i)] = float64(i) / 100
			rs.Alerts[fmt.Sprintf("p%02d/f", i)] = struct{}{}
		}
		return rs
	}
	prev := RuleSets{Seq: 1, Corr: map[string]float64{}, Assoc: map[string]float64{}, Alerts: map[string]struct{}{}}
	a := Diff(prev, build(), 0)
	b := Diff(prev, build(), 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("diff output depends on map iteration order")
	}
	// Counts are complete even though samples are capped.
	if a.CorrAdded != 50 || len(a.CorrAddedSample) != diffSampleCap {
		t.Fatalf("added %d, sample %d", a.CorrAdded, len(a.CorrAddedSample))
	}
	// Samples are sorted.
	for i := 1; i < len(a.CorrAddedSample); i++ {
		if a.CorrAddedSample[i-1] >= a.CorrAddedSample[i] {
			t.Fatalf("sample not sorted: %v", a.CorrAddedSample)
		}
	}
}

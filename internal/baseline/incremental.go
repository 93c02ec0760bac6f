package baseline

// Incremental retraining for the threshold baseline: membership in each
// window size's always-predict set is strictly field-local — a function
// of the field's own change days inside the validation span — so only
// dirty fields can move in or out of a set. TrainThresholdIncremental
// copies the previous sets and re-scores the fields
// changecube.DirtyUnits marks. A moved validation span re-aligns every
// tumbling window, so it rebuilds every field.

import (
	"fmt"
	"math"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// ThresholdPrevious carries the last successful training and the
// validation span it scanned.
type ThresholdPrevious struct {
	Predictor *Threshold
	ValSpan   timeline.Span
}

// ThresholdIncrementalStats reports what TrainThresholdIncremental did.
type ThresholdIncrementalStats struct {
	// Full is true when every field was re-scanned; FullReason is "cold",
	// "forced", or "span".
	Full       bool
	FullReason string
	// FieldsRecomputed counts the fields re-scored (once each, for every
	// window size), every field on a full rebuild.
	FieldsRecomputed int
}

// TrainThresholdIncremental is TrainThreshold with per-field reuse. delta
// is what changed since prev, which must come from the same sizes and
// fraction; changecube.Cold with a zero prev is a cold build. The result
// is bit-identical to TrainThreshold over the same inputs.
func TrainThresholdIncremental(hs *changecube.HistorySet, valSpan timeline.Span, sizes []int, fraction float64,
	prev ThresholdPrevious, delta changecube.Delta) (*Threshold, ThresholdIncrementalStats, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, ThresholdIncrementalStats{}, fmt.Errorf("baseline: fraction %v out of (0,1]", fraction)
	}
	if valSpan != prev.ValSpan {
		delta = delta.Rebuild("span")
	}
	dirty := changecube.DirtyUnits(hs, delta, prev.ValSpan, valSpan, func(f changecube.FieldKey) changecube.FieldKey { return f })
	recompute := hs.DirtyHistories(dirty)
	t := &Threshold{
		fraction: fraction,
		always:   make(map[int]map[changecube.FieldKey]bool, len(sizes)),
	}
	for _, size := range sizes {
		var prevSet map[changecube.FieldKey]bool
		if dirty.Full == "" {
			prevSet = prev.Predictor.always[size]
		}
		set := make(map[changecube.FieldKey]bool, len(prevSet))
		for f := range prevSet {
			if !dirty.Units[f] {
				set[f] = true
			}
		}
		windows := timeline.Tumbling(valSpan, size)
		need := int(math.Ceil(fraction * float64(len(windows))))
		if need < 1 {
			need = 1
		}
		if len(windows) > 0 {
			for _, h := range recompute {
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
		t.always[size] = set
	}
	return t, ThresholdIncrementalStats{Full: dirty.Full != "", FullReason: dirty.Full, FieldsRecomputed: len(recompute)}, nil
}

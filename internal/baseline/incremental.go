package baseline

// Incremental retraining for the threshold baseline: membership in each
// window size's always-predict set is strictly field-local — a function
// of the field's own change days inside the validation span — so only
// dirty fields can move in or out of a set. TrainThresholdIncremental
// copies the previous sets and re-scores the dirty fields. A moved
// validation span shifts every field's windows at once and falls back to
// a full scan.

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
	// FieldsRecomputed counts dirty fields re-scored on the incremental
	// path (per window size they are scored once each).
	FieldsRecomputed int
}

// TrainThresholdIncremental is TrainThreshold with per-field reuse. dirty
// lists the fields whose change histories differ from the previous
// training's, vanished fields included (core derives it with
// changecube.HistorySet.ChangedSince); prev must come from the same sizes
// and fraction, and a nil prev.Predictor is a cold build. The result is bit-identical to TrainThreshold over the
// same inputs.
func TrainThresholdIncremental(hs *changecube.HistorySet, valSpan timeline.Span, sizes []int, fraction float64,
	prev ThresholdPrevious, dirty map[changecube.FieldKey]bool, forceFull bool) (*Threshold, ThresholdIncrementalStats, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, ThresholdIncrementalStats{}, fmt.Errorf("baseline: fraction %v out of (0,1]", fraction)
	}
	reason := ""
	switch {
	case forceFull:
		reason = "forced"
	case prev.Predictor == nil:
		reason = "cold"
	case valSpan != prev.ValSpan:
		reason = "span"
	}
	if reason != "" {
		t, err := TrainThreshold(hs, valSpan, sizes, fraction)
		if err != nil {
			return nil, ThresholdIncrementalStats{}, err
		}
		return t, ThresholdIncrementalStats{Full: true, FullReason: reason}, nil
	}

	t := &Threshold{
		fraction: fraction,
		always:   make(map[int]map[changecube.FieldKey]bool, len(sizes)),
	}
	stats := ThresholdIncrementalStats{}
	for _, size := range sizes {
		prevSet := prev.Predictor.always[size]
		set := make(map[changecube.FieldKey]bool, len(prevSet))
		for f := range prevSet {
			if !dirty[f] {
				set[f] = true
			}
		}
		windows := timeline.Tumbling(valSpan, size)
		need := int(math.Ceil(fraction * float64(len(windows))))
		if need < 1 {
			need = 1
		}
		if len(windows) > 0 {
			for f := range dirty {
				h, ok := hs.Get(f)
				if !ok {
					continue // vanished field: already dropped above
				}
				changed := 0
				for _, w := range windows {
					if h.ChangedIn(w.Span) {
						changed++
					}
				}
				if changed >= need {
					set[f] = true
				}
			}
		}
		t.always[size] = set
	}
	stats.FieldsRecomputed = len(dirty)
	return t, stats, nil
}

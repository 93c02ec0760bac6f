package baseline

// Incremental retraining for the threshold baseline: membership in each
// window size's always-predict set is strictly field-local — a function
// of the field's own change days inside the validation span — so only
// dirty fields can move in or out of a set. TrainThresholdIncremental
// copies the previous sets and re-scores the fields
// changecube.DirtyUnits marks. A moved validation span re-aligns every
// tumbling window, so it rebuilds every field; a rebuild costs one walk
// of each field's in-span days, so that fallback stays cheap.

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
// fraction; changecube.Cold with a zero prev is a cold build, and any
// other build is bit-identical to it over the same inputs. Each re-scored
// field's days inside valSpan are read once and scored for every size in
// that one walk.
func TrainThresholdIncremental(hs *changecube.HistorySet, valSpan timeline.Span, sizes []int, fraction float64,
	prev ThresholdPrevious, delta changecube.Delta) (*Threshold, ThresholdIncrementalStats, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, ThresholdIncrementalStats{}, fmt.Errorf("baseline: fraction %v out of (0,1]", fraction)
	}
	for _, size := range sizes {
		if size < 1 {
			return nil, ThresholdIncrementalStats{}, fmt.Errorf("baseline: window size %d < 1", size)
		}
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
	// Per size: n whole tumbling windows and the hit count a field needs.
	// Days of the trailing partial window fall outside every window.
	n := make([]int, len(sizes))
	need := make([]int, len(sizes))
	sets := make([]map[changecube.FieldKey]bool, len(sizes))
	for i, size := range sizes {
		var prevSet map[changecube.FieldKey]bool
		if dirty.Full == "" {
			prevSet = prev.Predictor.always[size]
		}
		sets[i] = make(map[changecube.FieldKey]bool, len(prevSet))
		for f := range prevSet {
			if !dirty.Units[f] {
				sets[i][f] = true
			}
		}
		n[i] = valSpan.Len() / size
		need[i] = int(math.Ceil(fraction * float64(n[i])))
		if need[i] < 1 {
			need[i] = 1
		}
	}
	for _, h := range recompute {
		days := h.In(valSpan)
		for i, size := range sizes {
			if n[i] > 0 && windowsHit(days, valSpan.Start, size, n[i]) >= need[i] {
				sets[i][h.Field] = true
			}
		}
	}
	for i, size := range sizes {
		t.always[size] = sets[i]
	}
	return t, ThresholdIncrementalStats{Full: dirty.Full != "", FullReason: dirty.Full, FieldsRecomputed: len(recompute)}, nil
}

// windowsHit counts the tumbling windows of size days anchored at start,
// among the first n, that hold at least one of days (sorted, all at or
// after start): one walk, each change of window index is a new window.
func windowsHit(days []timeline.Day, start timeline.Day, size, n int) int {
	hit, last := 0, -1
	for _, d := range days {
		w := int(d-start) / size
		if w >= n {
			break
		}
		if w != last {
			hit, last = hit+1, w
		}
	}
	return hit
}

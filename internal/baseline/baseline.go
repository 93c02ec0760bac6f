// Package baseline implements the paper's two comparison predictors
// (§5.2): the mean baseline, a regressor that schedules the next change at
// the field's mean inter-change interval, and the threshold baseline,
// which predicts every window of a size for fields that changed in at
// least a threshold share of same-size windows during the validation year.
package baseline

import (
	"math"
	"sort"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Mean is the mean baseline. It is stateless: the mean inter-change gap is
// recomputed from the target's visible history at prediction time, so the
// estimate always uses all changes before the window start.
type Mean struct{}

var (
	_ predict.Predictor      = Mean{}
	_ predict.BatchPredictor = Mean{}
)

// Name implements predict.Predictor.
func (Mean) Name() string { return "mean baseline" }

// meanNext extrapolates the field's next change from its changes before
// the window start: with mean gap n, the next changes are scheduled at
// last + n, last + 2n, ...; the first one at or after the window start is
// the prediction. ok is false when the history is too short or degenerate
// to extrapolate from.
func meanNext(days []timeline.Day, w timeline.Window) (next, gap float64, ok bool) {
	if len(days) < 2 {
		return 0, 0, false
	}
	last := float64(days[len(days)-1])
	n := (float64(days[len(days)-1]) - float64(days[0])) / float64(len(days)-1)
	if n <= 0 {
		return 0, 0, false
	}
	// Smallest k >= 1 with last + k*n >= w.Start.
	k := math.Ceil((float64(w.Start) - last) / n)
	if k < 1 {
		k = 1
	}
	return last + k*n, n, true
}

// meanFires is the shared prediction rule: fire when the extrapolated next
// change day falls inside the window.
func meanFires(days []timeline.Day, w timeline.Window) bool {
	next, _, ok := meanNext(days, w)
	return ok && next < float64(w.End)
}

// Predict implements predict.Predictor.
func (Mean) Predict(ctx predict.Context) bool {
	return meanFires(ctx.TargetDays(), ctx.Window())
}

// PredictWindows implements predict.BatchPredictor: the per-window target
// prefixes come from the batch's single-merge precomputation instead of
// one binary search per window.
func (Mean) PredictWindows(b predict.Batch, out []bool) {
	windows := b.Windows()
	for i := range out {
		out[i] = meanFires(b.TargetDaysBefore(i), windows[i])
	}
}

// MeanEvidence is the mean baseline's explanation: the extrapolation that
// did (or did not) land inside the window.
type MeanEvidence struct {
	// NextDay is the first extrapolated change day at or after the window
	// start; MeanGapDays the mean inter-change gap it was scheduled with.
	NextDay     float64
	MeanGapDays float64
	// Fired reports whether NextDay fell inside the window — the Predict
	// verdict.
	Fired bool
}

// Explain returns the extrapolation evidence behind Predict's verdict, and
// ok=false when the target's visible history is too short to extrapolate
// (in which case Predict is false).
func (Mean) Explain(ctx predict.Context) (MeanEvidence, bool) {
	next, gap, ok := meanNext(ctx.TargetDays(), ctx.Window())
	if !ok {
		return MeanEvidence{}, false
	}
	return MeanEvidence{
		NextDay:     next,
		MeanGapDays: gap,
		Fired:       next < float64(ctx.Window().End),
	}, true
}

// Threshold is the threshold baseline. For every window size it remembers
// the fields that changed in at least Fraction of the validation windows
// of that size and predicts a change in every test window for exactly
// those fields.
type Threshold struct {
	fraction float64
	// always[size] holds the fields predicted for every window of size.
	always map[int]map[changecube.FieldKey]bool
}

var (
	_ predict.Predictor      = (*Threshold)(nil)
	_ predict.BatchPredictor = (*Threshold)(nil)
)

// TrainThreshold scores every field on its validation-span days. The paper
// uses fraction = 0.85 (the precision target) and the 365-day validation
// set; e.g. a field changing in at least 45 of the 52 seven-day validation
// windows is predicted for every 7-day test window.
func TrainThreshold(hs *changecube.HistorySet, valSpan timeline.Span, sizes []int, fraction float64) (*Threshold, error) {
	t, _, err := TrainThresholdIncremental(hs, valSpan, sizes, fraction, ThresholdPrevious{}, changecube.Cold)
	return t, err
}

// Name implements predict.Predictor.
func (t *Threshold) Name() string { return "threshold baseline" }

// Predict implements predict.Predictor.
func (t *Threshold) Predict(ctx predict.Context) bool {
	set, ok := t.always[ctx.Window().Size()]
	if !ok {
		return false
	}
	return set[ctx.Target()]
}

// PredictWindows implements predict.BatchPredictor: one set lookup decides
// every window of the size at once.
func (t *Threshold) PredictWindows(b predict.Batch, out []bool) {
	set, ok := t.always[b.WindowSize()]
	v := ok && set[b.Target()]
	for i := range out {
		out[i] = v
	}
}

// Explain reports whether the target is in the always-predict set for the
// window's size — which is the whole of the threshold baseline's evidence —
// and whether the size was trained at all.
func (t *Threshold) Explain(ctx predict.Context) (inSet, sizeKnown bool) {
	set, ok := t.always[ctx.Window().Size()]
	if !ok {
		return false, false
	}
	return set[ctx.Target()], true
}

// SizeFields pairs a window size with the fields unconditionally predicted
// at that size, the serializable unit of the threshold baseline.
type SizeFields struct {
	Size   int
	Fields []changecube.FieldKey
}

// Export returns the trained always-predict sets in deterministic order.
func (t *Threshold) Export() []SizeFields {
	var out []SizeFields
	for size, set := range t.always {
		sf := SizeFields{Size: size}
		for field := range set {
			sf.Fields = append(sf.Fields, field)
		}
		sort.Slice(sf.Fields, func(i, j int) bool {
			a, b := sf.Fields[i], sf.Fields[j]
			if a.Entity != b.Entity {
				return a.Entity < b.Entity
			}
			return a.Property < b.Property
		})
		out = append(out, sf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// ThresholdFromSets reconstructs a threshold baseline from exported sets.
func ThresholdFromSets(sets []SizeFields) *Threshold {
	t := &Threshold{always: make(map[int]map[changecube.FieldKey]bool, len(sets))}
	for _, sf := range sets {
		m := make(map[changecube.FieldKey]bool, len(sf.Fields))
		for _, f := range sf.Fields {
			m[f] = true
		}
		t.always[sf.Size] = m
	}
	return t
}

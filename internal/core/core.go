// Package core is the paper's contribution (1): a framework for predicting
// out-of-date data in Wikipedia infoboxes at multiple time granularities.
// It wires the substrate packages together — noise filtering, the two
// change predictors, the baselines and the ensembles — behind a single
// Detector type, and exposes the deployment-facing operation the paper
// motivates: marking fields whose expected change did not happen.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/baseline"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/ensemble"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/familycorr"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/obs/trace"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/seasonal"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Config assembles every tunable of the pipeline. DefaultConfig reproduces
// the paper's deployed configuration.
type Config struct {
	Filter      filter.Config
	Correlation correlation.Config
	AssocRules  assocrules.Config
	// Seasonal configures the extension predictor the paper's §6 proposes
	// as future work; it is trained alongside the paper's predictors but
	// participates only in the extended ensemble.
	Seasonal seasonal.Config
	// FamilyCorr configures the second §6 extension: correlations pooled
	// across the yearly pages of annual events.
	FamilyCorr familycorr.Config
	// ThresholdFraction is the threshold baseline's window-share cut
	// (0.85, the paper's precision target).
	ThresholdFraction float64
	// ValidationDays and TestDays are the spans of the last two splits of
	// the time axis (365 days each in the paper).
	ValidationDays int
	TestDays       int
}

// DefaultConfig returns the paper's configuration: θ = 0.1, Apriori with
// 0.25 % support / 60 % confidence / 10 % validation slice / 90 % rule
// precision, the 5-change filter, and year-long validation and test sets.
func DefaultConfig() Config {
	return Config{
		Filter:            filter.Default(),
		Correlation:       correlation.Default(),
		AssocRules:        assocrules.Default(),
		Seasonal:          seasonal.Default(),
		FamilyCorr:        familycorr.Default(),
		ThresholdFraction: 0.85,
		ValidationDays:    365,
		TestDays:          365,
	}
}

// Splits is the time-axis partition of §5.1.
type Splits struct {
	// Train covers everything before the validation set.
	Train timeline.Span
	// Validation is the year before the test set.
	Validation timeline.Span
	// Test is the final year.
	Test timeline.Span
	// TrainVal is Train ∪ Validation, the span final models are trained
	// on.
	TrainVal timeline.Span
}

// ComputeSplits partitions a data span. It fails when the span cannot hold
// the validation and test sets plus at least one year of training data.
func ComputeSplits(span timeline.Span, validationDays, testDays int) (Splits, error) {
	if validationDays <= 0 || testDays <= 0 {
		return Splits{}, fmt.Errorf("core: non-positive split sizes %d/%d", validationDays, testDays)
	}
	minTrain := 365
	if span.Len() < validationDays+testDays+minTrain {
		return Splits{}, fmt.Errorf("core: span %v too short for %d+%d day splits plus training data",
			span, validationDays, testDays)
	}
	testStart := span.End - timeline.Day(testDays)
	valStart := testStart - timeline.Day(validationDays)
	return Splits{
		Train:      timeline.NewSpan(span.Start, valStart),
		Validation: timeline.NewSpan(valStart, testStart),
		Test:       timeline.NewSpan(testStart, span.End),
		TrainVal:   timeline.NewSpan(span.Start, testStart),
	}, nil
}

// Detector is the trained stale-data detection system.
type Detector struct {
	cfg       Config
	histories *changecube.HistorySet
	splits    Splits

	fieldCorr  *correlation.Predictor
	assocRules *assocrules.Predictor
	seasonalP  *seasonal.Predictor
	familyCorr *familycorr.Predictor
	meanBase   baseline.Mean
	threshBase *baseline.Threshold
	andEns     ensemble.And
	orEns      ensemble.Or
	extOrEns   ensemble.Or

	// evidence is DetectStale's compiled view of the rules over the
	// histories; it is rebuilt wherever either is set.
	evidence evidenceIndex

	filterStats filter.Stats
	report      TrainReport
	corrInc     correlation.IncrementalStats
	assocInc    assocrules.IncrementalStats
	seasonInc   seasonal.IncrementalStats
	familyInc   familycorr.IncrementalStats
	threshInc   baseline.ThresholdIncrementalStats
}

// StageTiming is one named step of the training pipeline and its
// wall-clock duration.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// TrainReport is the timing breakdown of one Train/TrainFiltered call.
// The same durations are recorded into the default obs registry as the
// wikistale_train_stage_seconds histogram, so a serving process exposes
// them on /metrics; the report is the human-readable view for the CLIs'
// -v/-timing flags.
type TrainReport struct {
	// Filter is the noise-funnel report.
	Filter filter.Stats
	// Stages lists the model-training steps in execution order.
	Stages []StageTiming
	// Total is the end-to-end wall-clock time of the call.
	Total time.Duration
}

func (r *TrainReport) add(name string, d time.Duration) {
	r.Stages = append(r.Stages, StageTiming{Name: name, Duration: d})
}

// String renders the report as an aligned two-column table.
func (r TrainReport) String() string {
	var b strings.Builder
	b.WriteString("stage timings:\n")
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "  %-28s %v\n", st.Name, st.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  %-28s %v\n", "total", r.Total.Round(time.Microsecond))
	return b.String()
}

// Train runs the full pipeline on a raw change cube: noise filtering,
// time-axis splitting, and final-model training on train+validation (the
// paper's protocol after hyper-parameters are fixed; use the GridSearch
// functions for the tuning step).
func Train(cube *changecube.Cube, cfg Config) (*Detector, error) {
	return TrainCtx(context.Background(), cube, cfg)
}

// TrainCtx is Train with trace propagation: when ctx carries a trace (a
// live retrain trigger), the filter and per-model stage timers become its
// child spans, so /debug/traces shows where a retrain's time went.
func TrainCtx(ctx context.Context, cube *changecube.Cube, cfg Config) (*Detector, error) {
	_, span := obs.StartSpanCtx(ctx, "train/filter")
	hs, stats, err := filter.Apply(cube, cfg.Filter)
	if err != nil {
		return nil, fmt.Errorf("core: filtering: %w", err)
	}
	filterDur := span.End()
	d, err := TrainFilteredHintedCtx(ctx, hs, stats, cfg, TrainHints{})
	if err != nil {
		return nil, err
	}
	d.report.Stages = append([]StageTiming{{Name: "train/filter", Duration: filterDur}}, d.report.Stages...)
	d.report.Total += filterDur
	return d, nil
}

// TrainFiltered is Train for data that already passed the filter pipeline.
func TrainFiltered(hs *changecube.HistorySet, stats filter.Stats, cfg Config) (*Detector, error) {
	return TrainFilteredHintedCtx(context.Background(), hs, stats, cfg, TrainHints{})
}

// TrainHints carries optional retraining context into
// TrainFilteredHintedCtx. The zero value is a cold build.
type TrainHints struct {
	// Prev is the detector from the last successful training over the same
	// configuration and the same cube lineage (entity IDs stable and
	// append-only). The retrain delta is derived from it: the fields whose
	// filtered histories differ between Prev.Histories() and the new input
	// (see changecube.HistorySet.ChangedSince). Every model stage reuses
	// Prev's work for the units changecube.DirtyUnits leaves clean —
	// correlation per page, association rules per template, seasonal
	// anchors and the threshold baseline per field, family correlations
	// per family — and falls back to a full rebuild on its own only where
	// its result stops being unit-local (see DESIGN.md §10).
	// Prev.Histories() must still be what Prev was trained on, so a
	// detector that has Ingested since is no valid Prev. Nil is a cold
	// build.
	Prev *Detector
	// ForceFull rebuilds every stage even when Prev is usable.
	ForceFull bool
}

// TrainFilteredHintedCtx is TrainFiltered with retraining hints and trace
// propagation for the per-model stage timers. Every training runs the
// stages' incremental trainers; the result is bit-identical to a cold
// build on the same inputs, hints only shortcut the work (see
// correlation.TrainIncremental).
func TrainFilteredHintedCtx(ctx context.Context, hs *changecube.HistorySet, stats filter.Stats, cfg Config, hints TrainHints) (*Detector, error) {
	if hs.Len() == 0 {
		return nil, fmt.Errorf("core: no fields survive filtering")
	}
	splits, err := ComputeSplits(hs.Span(), cfg.ValidationDays, cfg.TestDays)
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, histories: hs, splits: splits, filterStats: stats}
	d.report.Filter = stats
	start := time.Now()

	// The retrain delta, derived once for every stage: cold and forced
	// rebuilds are decided here, each stage's own fallbacks in the stage.
	delta := changecube.Cold
	var (
		prevCorr   correlation.Previous
		prevAssoc  assocrules.Previous
		prevSeason seasonal.Previous
		prevFamily familycorr.Previous
		prevThresh baseline.ThresholdPrevious
	)
	switch p := hints.Prev; {
	case hints.ForceFull:
		delta = changecube.Delta{Full: "forced"}
	case p != nil:
		delta = changecube.Delta{Changed: hs.ChangedSince(p.histories)}
		prevCorr = correlation.Previous{Predictor: p.fieldCorr, Span: p.splits.TrainVal}
		prevAssoc = assocrules.Previous{Predictor: p.assocRules, Span: p.splits.TrainVal}
		prevSeason = seasonal.Previous{Predictor: p.seasonalP, Span: p.splits.TrainVal}
		prevFamily = familycorr.Previous{Predictor: p.familyCorr, Span: p.splits.TrainVal, Entities: p.histories.Cube().NumEntities()}
		prevThresh = baseline.ThresholdPrevious{Predictor: p.threshBase, ValSpan: p.splits.Validation}
	}
	obs.Default.Gauge(obs.IncrementalDirtyFields, nil).Set(float64(len(delta.Changed)))

	_, span := obs.StartSpanCtx(ctx, "train/correlation")
	d.fieldCorr, d.corrInc, err = correlation.TrainIncremental(
		hs, splits.TrainVal, cfg.Correlation, prevCorr, delta)
	if err != nil {
		return nil, fmt.Errorf("core: field correlations: %w", err)
	}
	d.report.add("train/correlation", span.End())

	sctx, span := obs.StartSpanCtx(ctx, "train/assocrules")
	d.assocRules, d.assocInc, err = assocrules.TrainIncremental(
		sctx, hs, splits.TrainVal, cfg.AssocRules, prevAssoc, delta)
	if err != nil {
		return nil, fmt.Errorf("core: association rules: %w", err)
	}
	d.report.add("train/assocrules", span.End())

	_, span = obs.StartSpanCtx(ctx, "train/seasonal")
	d.seasonalP, d.seasonInc, err = seasonal.TrainIncremental(
		hs, splits.TrainVal, cfg.Seasonal, prevSeason, delta)
	if err != nil {
		return nil, fmt.Errorf("core: seasonal: %w", err)
	}
	d.report.add("train/seasonal", span.End())

	_, span = obs.StartSpanCtx(ctx, "train/familycorr")
	d.familyCorr, d.familyInc, err = familycorr.TrainIncremental(
		hs, splits.TrainVal, cfg.FamilyCorr, prevFamily, delta)
	if err != nil {
		return nil, fmt.Errorf("core: family correlations: %w", err)
	}
	d.report.add("train/familycorr", span.End())

	_, span = obs.StartSpanCtx(ctx, "train/threshold")
	d.threshBase, d.threshInc, err = baseline.TrainThresholdIncremental(
		hs, splits.Validation, timeline.StandardSizes, cfg.ThresholdFraction, prevThresh, delta)
	if err != nil {
		return nil, fmt.Errorf("core: threshold baseline: %w", err)
	}
	d.report.add("train/threshold", span.End())

	_, span = obs.StartSpanCtx(ctx, "train/ensembles")
	d.andEns, d.orEns = ensemble.Paper(d.fieldCorr, d.assocRules)
	d.extOrEns = ensemble.Or{
		Members: []predict.Predictor{d.fieldCorr, d.assocRules, d.seasonalP, d.familyCorr},
		Label:   "extended OR-ensemble",
	}
	d.report.add("train/ensembles", span.End())

	_, span = obs.StartSpanCtx(ctx, "train/evidence")
	d.evidence = compileEvidence(hs, d.fieldCorr, d.assocRules)
	d.report.add("train/evidence", span.End())

	d.report.Total = time.Since(start)
	return d, nil
}

// Histories returns the filtered dataset backing the detector.
func (d *Detector) Histories() *changecube.HistorySet { return d.histories }

// Splits returns the time-axis partition.
func (d *Detector) Splits() Splits { return d.splits }

// FilterStats returns the noise-funnel statistics of Train.
func (d *Detector) FilterStats() filter.Stats { return d.filterStats }

// TrainReport returns the stage-timing breakdown of the Train call that
// built this detector. Detectors restored via LoadModelBytes carry an empty
// report apart from the filter stats.
func (d *Detector) TrainReport() TrainReport { return d.report }

// CorrelationRetrain reports what the correlation trainer did for this
// detector — full rebuild or incremental reuse, and the page accounting.
// A training without a Prev reports Full with FullReason "cold"; a
// detector restored via LoadModelBytes reports the zero value.
func (d *Detector) CorrelationRetrain() correlation.IncrementalStats { return d.corrInc }

// AssocRetrain, SeasonalRetrain, FamilyRetrain, and ThresholdRetrain are
// CorrelationRetrain's counterparts for the other incrementally trained
// stages: what each trainer reused versus rebuilt, and why a full rebuild
// happened when it did ("cold" when there was no Prev).
func (d *Detector) AssocRetrain() assocrules.IncrementalStats { return d.assocInc }

// SeasonalRetrain reports the seasonal stage's incremental accounting.
func (d *Detector) SeasonalRetrain() seasonal.IncrementalStats { return d.seasonInc }

// FamilyRetrain reports the family-correlation stage's incremental
// accounting.
func (d *Detector) FamilyRetrain() familycorr.IncrementalStats { return d.familyInc }

// ThresholdRetrain reports the threshold baseline's incremental accounting.
func (d *Detector) ThresholdRetrain() baseline.ThresholdIncrementalStats { return d.threshInc }

// FieldCorrelations returns the trained field-correlation predictor.
func (d *Detector) FieldCorrelations() *correlation.Predictor { return d.fieldCorr }

// AssociationRules returns the trained association-rule predictor.
func (d *Detector) AssociationRules() *assocrules.Predictor { return d.assocRules }

// Seasonal returns the §6 extension predictor (yearly recurrence anchors).
func (d *Detector) Seasonal() *seasonal.Predictor { return d.seasonalP }

// FamilyCorrelations returns the §6 extension predictor pooling histories
// across the yearly pages of annual events.
func (d *Detector) FamilyCorrelations() *familycorr.Predictor { return d.familyCorr }

// OrEnsemble returns the paper's best predictor: the disjunction of field
// correlations and association rules.
func (d *Detector) OrEnsemble() predict.Predictor { return d.orEns }

// ExtendedOrEnsemble returns the future-work ensemble: the paper's
// OR-ensemble widened with the seasonal predictor.
func (d *Detector) ExtendedOrEnsemble() predict.Predictor { return d.extOrEns }

// Predictors returns all six predictors in the row order of Table 1: mean
// baseline, threshold baseline, field correlations, association rules,
// AND-ensemble, OR-ensemble.
func (d *Detector) Predictors() []predict.Predictor {
	return []predict.Predictor{
		d.meanBase,
		d.threshBase,
		d.fieldCorr,
		d.assocRules,
		d.andEns,
		d.orEns,
	}
}

// EvaluateTest runs the Table-1 evaluation on the held-out test year.
func (d *Detector) EvaluateTest(opts eval.Options) (*eval.Report, error) {
	return eval.Evaluate(d.histories, d.splits.Test, d.Predictors(), opts)
}

// StaleAlert is one deployment finding: a field that should have changed
// within the window but did not — a candidate for the paper's "this value
// might be out of date" marker (Figure 1).
type StaleAlert struct {
	Field changecube.FieldKey
	// Window is the span in which the change was expected.
	Window timeline.Window
	// Sources names the predictors that fired.
	Sources []string
	// Explanation is the human-readable evidence (which related field or
	// rule demanded the change).
	Explanation string
}

// DetectStaleCtx is DetectStale wrapped in a trace child span, so a
// request trace shows the detector scan as one timed node with its window
// and alert count attached. Without a trace in ctx it costs nothing extra.
func (d *Detector) DetectStaleCtx(ctx context.Context, asOf timeline.Day, windowSize int) []StaleAlert {
	_, span := trace.StartChild(ctx, "detect_stale")
	span.SetAttr("asof", asOf.String())
	span.SetAttr("window_days", windowSize)
	alerts := d.DetectStale(asOf, windowSize)
	span.SetAttr("alerts", len(alerts))
	span.End()
	return alerts
}

// DetectStale runs the OR-ensemble over the window [asOf-windowSize, asOf)
// and returns the fields predicted to change that did not — the system's
// production output. Fields that did change are healthy and not reported.
// Beyond the fields with recorded histories, rule consequents that have
// never changed at all are also checked: association rules work for such
// fields too (the paper notes they need no history for the predicted
// field), which is how a freshly created infobox gets coverage from day
// one. Alerts come in (entity, property) order.
//
// The scan reads the evidence index compiled when the detector was built.
// It walks only the histories that changed in the window, found through
// the index's days, marks each as changed and its reverse targets as
// candidates. A target with no changed evidence cannot alert, so only the
// candidates are visited, in (entity, property) order: those whose own
// history did not change are scored from the changed marks. The alerts
// equal those of asking both paper predictors' Explain about every
// unchanged history and every history-less consequent
// (TestDetectStaleMatchesReference).
func (d *Detector) DetectStale(asOf timeline.Day, windowSize int) []StaleAlert {
	if windowSize <= 0 {
		return nil
	}
	w := staleWindow(asOf, windowSize)
	ev := &d.evidence
	inWindow := ev.changedIn(w.Span)
	if len(inWindow) == 0 {
		return nil
	}
	changed := make(bitset, (d.histories.Len()+63)/64)
	candidates := make(bitset, (len(ev.targets)+63)/64)
	for _, h := range inWindow {
		if !changed.has(h) {
			changed.set(h)
			for _, t := range ev.reverseOf(h) {
				candidates.set(t)
			}
		}
	}
	var alerts []StaleAlert
	for i, word := range candidates {
		for ; word != 0; word &= word - 1 {
			if a, ok := d.alert(int32(i*64+bits.TrailingZeros64(word)), changed, w); ok {
				alerts = append(alerts, a)
			}
		}
	}
	return alerts
}

// alert scores evidence target ti against the histories marked changed in
// window w: no alert when the target's own history changed or none of its
// evidence did.
func (d *Detector) alert(ti int32, changed bitset, w timeline.Window) (StaleAlert, bool) {
	t := d.evidence.targets[ti]
	if t.history >= 0 && changed.has(t.history) {
		return StaleAlert{}, false // the field was updated; nothing is stale
	}
	histories := d.histories.Histories()
	partners, antes := d.evidence.evidenceOf(ti)
	var sources []string
	explanation := ""
	var first int32
	fired := 0
	for _, i := range partners {
		if changed.has(i) {
			if fired == 0 {
				first = i
			}
			fired++
		}
	}
	if fired > 0 {
		sources = append(sources, d.fieldCorr.Name())
		explanation = d.explainCorrelation(histories[first].Field.Property, fired)
	}
	for _, i := range antes {
		if changed.has(i) {
			sources = append(sources, d.assocRules.Name())
			if explanation != "" {
				explanation += "; "
			}
			explanation += d.explainRule(t.field, histories[i].Field.Property)
			break // the explanation names the first antecedent only
		}
	}
	if len(sources) == 0 {
		return StaleAlert{}, false
	}
	return StaleAlert{
		Field:       t.field,
		Window:      w,
		Sources:     sources,
		Explanation: explanation,
	}, true
}

// staleWindow is the window [asOf-windowSize, asOf) that DetectStale and
// Explain judge. The start is computed in int64 and clamped to the Day
// range, so a window longer than the range reaches back to its first day
// instead of wrapping around; a non-positive size gives the empty window
// ending at asOf.
func staleWindow(asOf timeline.Day, windowSize int) timeline.Window {
	size := min(max(int64(windowSize), 0), 1<<32) // 1<<32 days cover the Day range
	start := max(int64(asOf)-size, math.MinInt32)
	return timeline.Window{Span: timeline.NewSpan(timeline.Day(start), asOf)}
}

// HistorylessConsequents returns every field an association rule covers on
// an observed entity but for which no filtered history exists — the fields
// only rule coverage can speak for. The list is deduplicated (rules may
// share a consequent) and sorted by (entity, property), so both DetectStale
// and a serving index built from it are deterministic across restarts:
// when two entities on one page can claim the same (page, property) pair,
// the lowest entity consistently wins any first-wins tie-break downstream.
// The list is computed once when the detector is built; the returned slice
// is shared and must be treated as read-only.
func (d *Detector) HistorylessConsequents() []changecube.FieldKey { return d.evidence.historyless }

// explainCorrelation is the summary of n fired correlation partners, the
// first of which has property first.
func (d *Detector) explainCorrelation(first changecube.PropertyID, n int) string {
	cube := d.histories.Cube()
	name := cube.Properties.Name(int32(first))
	if n == 1 {
		return fmt.Sprintf("correlated field %q changed", name)
	}
	return fmt.Sprintf("correlated field %q and %d more changed", name, n-1)
}

// explainRule is the summary of the fired rules ante → field, naming the
// first fired antecedent.
func (d *Detector) explainRule(field changecube.FieldKey, ante changecube.PropertyID) string {
	cube := d.histories.Cube()
	template := cube.Templates.Name(int32(cube.Template(field.Entity)))
	return fmt.Sprintf("rule %s -> %s of template %q fired",
		cube.Properties.Name(int32(ante)), cube.Properties.Name(int32(field.Property)), template)
}

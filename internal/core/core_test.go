package core

import (
	"context"
	"strings"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/obs/trace"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// trainSmall generates the test corpus and trains a detector once per test
// binary; the corpus and training are deterministic.
var trained struct {
	det   *Detector
	truth *dataset.Truth
}

func detector(t *testing.T) (*Detector, *dataset.Truth) {
	t.Helper()
	if trained.det != nil {
		return trained.det, trained.truth
	}
	cube, truth, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	det, err := Train(cube, DefaultConfig())
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	trained.det = det
	trained.truth = truth
	return det, truth
}

// TestTracedTrainNestsAssocStages: in a traced training the association
// rules' grouping, holdout, mining and validation timers are children of
// train/assocrules, as the live path's retrains record them.
func TestTracedTrainNestsAssocStages(t *testing.T) {
	det, _ := detector(t)
	rec := trace.New(1)
	ctx, root := trace.StartIn(rec, context.Background(), "retrain")
	if _, err := TrainFilteredHintedCtx(ctx, det.Histories(), det.FilterStats(), det.cfg, TrainHints{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Newest()[0].Spans
	parent := ""
	for _, s := range spans {
		if s.Name == "train/assocrules" {
			parent = s.SpanID
		}
	}
	for _, stage := range []string{"train/assoc_transactions", "train/assoc_holdout", "train/assoc_mine", "train/assoc_validate"} {
		n := 0
		for _, s := range spans {
			if s.Name == stage && s.ParentID == parent {
				n++
			}
		}
		if parent == "" || n != 1 {
			t.Errorf("%d %s spans under train/assocrules (span %q), want 1", n, stage, parent)
		}
	}
}

func TestComputeSplits(t *testing.T) {
	span := timeline.NewSpan(0, 365*5)
	s, err := ComputeSplits(span, 365, 365)
	if err != nil {
		t.Fatal(err)
	}
	if s.Test.Len() != 365 || s.Validation.Len() != 365 {
		t.Fatalf("splits = %+v", s)
	}
	if s.Test.End != span.End || s.Validation.End != s.Test.Start || s.Train.End != s.Validation.Start {
		t.Fatalf("splits not contiguous: %+v", s)
	}
	if s.TrainVal.Start != s.Train.Start || s.TrainVal.End != s.Validation.End {
		t.Fatalf("TrainVal wrong: %+v", s)
	}
}

func TestComputeSplitsTooShort(t *testing.T) {
	if _, err := ComputeSplits(timeline.NewSpan(0, 900), 365, 365); err == nil {
		t.Fatal("short span accepted")
	}
	if _, err := ComputeSplits(timeline.NewSpan(0, 10000), 0, 365); err == nil {
		t.Fatal("zero validation accepted")
	}
}

func TestTrainProducesAllPredictors(t *testing.T) {
	det, _ := detector(t)
	ps := det.Predictors()
	if len(ps) != 6 {
		t.Fatalf("predictors = %d, want 6", len(ps))
	}
	wantOrder := []string{
		"mean baseline", "threshold baseline", "field correlations",
		"association rules", "AND-ensemble", "OR-ensemble",
	}
	for i, p := range ps {
		if p.Name() != wantOrder[i] {
			t.Fatalf("predictor %d = %q, want %q", i, p.Name(), wantOrder[i])
		}
	}
	if det.FieldCorrelations().NumRules() == 0 {
		t.Fatal("no correlation rules learned")
	}
	if det.AssociationRules().NumRules() == 0 {
		t.Fatal("no association rules learned")
	}
	if det.FilterStats().Survival() <= 0 {
		t.Fatal("no filter stats recorded")
	}
}

// TestTableOneShape asserts the qualitative result of the paper's Table 1
// on the synthetic corpus: both our predictors beat the 85% precision
// target on weekly windows with non-trivial recall, the baselines fail it,
// and the ensembles bracket the members.
func TestTableOneShape(t *testing.T) {
	det, _ := detector(t)
	report, err := det.EvaluateTest(eval.Options{Sizes: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) eval.Counts { return report.BySize[name][7] }

	corr, assoc := get("field correlations"), get("association rules")
	and, or := get("AND-ensemble"), get("OR-ensemble")
	mean, thresh := get("mean baseline"), get("threshold baseline")

	for name, c := range map[string]eval.Counts{
		"field correlations": corr, "association rules": assoc, "OR-ensemble": or,
	} {
		if c.Precision() < 0.85 {
			t.Errorf("%s precision %.3f below the 85%% target", name, c.Precision())
		}
		if c.Recall() <= 0 {
			t.Errorf("%s has zero recall", name)
		}
	}
	if mean.Precision() >= 0.85 {
		t.Errorf("mean baseline precision %.3f unexpectedly meets the target", mean.Precision())
	}
	// The OR-ensemble must have the highest recall of all predictors that
	// meet the precision target.
	if or.Recall() < corr.Recall() || or.Recall() < assoc.Recall() {
		t.Errorf("OR recall %.3f below members (%.3f, %.3f)", or.Recall(), corr.Recall(), assoc.Recall())
	}
	if and.Recall() > corr.Recall() || and.Recall() > assoc.Recall() {
		t.Errorf("AND recall %.3f above members (%.3f, %.3f)", and.Recall(), corr.Recall(), assoc.Recall())
	}
	// AND predictions are exactly the intersection; OR the union.
	if and.Predictions() > corr.Predictions() || and.Predictions() > assoc.Predictions() {
		t.Error("AND predicted more than a member")
	}
	if or.Predictions() < corr.Predictions() || or.Predictions() < assoc.Predictions() {
		t.Error("OR predicted less than a member")
	}
	if or.Predictions() > corr.Predictions()+assoc.Predictions() {
		t.Error("OR predicted more than the sum of members")
	}
	_ = thresh // threshold baseline can land anywhere below ~90 on tiny corpora
}

// TestEnsembleCountsConsistent: |OR| + |AND| = |A| + |B| holds exactly for
// union and intersection.
func TestEnsembleCountsConsistent(t *testing.T) {
	det, _ := detector(t)
	report, err := det.EvaluateTest(eval.Options{Sizes: []int{30}})
	if err != nil {
		t.Fatal(err)
	}
	corr := report.BySize["field correlations"][30].Predictions()
	assoc := report.BySize["association rules"][30].Predictions()
	and := report.BySize["AND-ensemble"][30].Predictions()
	or := report.BySize["OR-ensemble"][30].Predictions()
	if or+and != corr+assoc {
		t.Fatalf("inclusion-exclusion violated: OR %d + AND %d != %d + %d", or, and, corr, assoc)
	}
}

func TestDetectStaleFindsCaseStudy(t *testing.T) {
	det, truth := detector(t)
	cs := truth.CaseStudy
	if len(cs.MissedDays) == 0 {
		t.Fatal("no case study planted")
	}
	found := false
	var explanation string
	for _, missed := range cs.MissedDays {
		// Ask for staleness two days after the missed match day with a
		// narrow window, so the previous (correct) goals update is outside.
		alerts := det.DetectStale(missed+2, 3)
		for _, a := range alerts {
			if a.Field == cs.TotalGoals {
				found = true
				explanation = a.Explanation
			}
		}
	}
	if !found {
		t.Fatal("the Handball-Bundesliga missed goals updates were not flagged")
	}
	if !strings.Contains(explanation, "matches") || !strings.Contains(explanation, "total_goals") {
		t.Errorf("explanation lacks the rule: %q", explanation)
	}
}

func TestDetectStaleSkipsHealthyFields(t *testing.T) {
	det, truth := detector(t)
	cs := truth.CaseStudy
	// Pick a day where total_goals WAS updated (a non-missed match day):
	// the field must not be alerted.
	hs := det.Histories()
	h, ok := hs.Get(cs.TotalGoals)
	if !ok {
		t.Fatal("case study field not in filtered data")
	}
	updated := h.Days()[h.Len()/2]
	for _, a := range det.DetectStale(updated+1, 3) {
		if a.Field == cs.TotalGoals {
			t.Fatalf("healthy field flagged stale: %+v", a)
		}
	}
}

func TestDetectStaleZeroWindow(t *testing.T) {
	det, _ := detector(t)
	if got := det.DetectStale(1000, 0); got != nil {
		t.Fatal("zero window produced alerts")
	}
}

func TestGridSearchTheta(t *testing.T) {
	det, _ := detector(t)
	hs, splits := det.Histories(), det.Splits()
	thetas := []float64{0.01, 0.05, 0.1, 0.15}
	results, err := GridSearchTheta(hs, splits, thetas, det.cfg.Correlation, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(thetas) {
		t.Fatalf("results = %d", len(results))
	}
	// Rule count must be nondecreasing in theta (larger threshold admits
	// every pair a smaller one does).
	for i := 1; i < len(results); i++ {
		if results[i].NumRules < results[i-1].NumRules {
			t.Fatalf("rule count not monotone: %+v", results)
		}
	}
	if best, ok := BestTheta(results, 0.85); ok {
		if best.Counts.Precision() < 0.85 {
			t.Fatalf("BestTheta returned sub-target point: %+v", best)
		}
	}
	if _, ok := BestTheta(results, 1.01); ok {
		t.Fatal("impossible precision target satisfied")
	}
}

func TestGridSearchApriori(t *testing.T) {
	det, _ := detector(t)
	hs, splits := det.Histories(), det.Splits()
	results, err := GridSearchApriori(hs, splits,
		[]float64{0.0025, 0.01}, []float64{0.6, 0.8}, []float64{0.1},
		det.cfg.AssocRules, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	// Stricter support/confidence cannot increase the rule count.
	byKey := map[[2]float64]AprioriResult{}
	for _, r := range results {
		byKey[[2]float64{r.MinSupport, r.MinConfidence}] = r
	}
	if byKey[[2]float64{0.01, 0.8}].NumRules > byKey[[2]float64{0.0025, 0.6}].NumRules {
		t.Fatalf("monotonicity violated: %+v", results)
	}
	if _, ok := BestApriori(results, 1.01); ok {
		t.Fatal("impossible precision target satisfied")
	}
}

func TestGridSearchValidation(t *testing.T) {
	det, _ := detector(t)
	if _, err := GridSearchTheta(det.Histories(), det.Splits(), nil, det.cfg.Correlation, 7); err == nil {
		t.Fatal("empty theta grid accepted")
	}
	if _, err := GridSearchApriori(det.Histories(), det.Splits(), nil, []float64{0.6}, []float64{0.1}, det.cfg.AssocRules, 7); err == nil {
		t.Fatal("empty apriori grid accepted")
	}
}

func TestTrainFailsOnEmptyCube(t *testing.T) {
	if _, err := Train(changecube.New(), DefaultConfig()); err == nil {
		t.Fatal("empty cube accepted")
	}
}

func TestExtendedEnsemble(t *testing.T) {
	det, _ := detector(t)
	if det.Seasonal() == nil {
		t.Fatal("seasonal predictor not trained")
	}
	ext := det.ExtendedOrEnsemble()
	if ext.Name() != "extended OR-ensemble" {
		t.Fatalf("name = %q", ext.Name())
	}
	report, err := eval.Evaluate(det.Histories(), det.Splits().Test,
		[]predict.Predictor{det.OrEnsemble(), ext, det.Seasonal()},
		eval.Options{Sizes: []int{30}})
	if err != nil {
		t.Fatal(err)
	}
	or := report.BySize["OR-ensemble"][30]
	extc := report.BySize["extended OR-ensemble"][30]
	seas := report.BySize["seasonal"][30]
	// The extension is a superset: recall can only grow.
	if extc.Recall() < or.Recall() {
		t.Errorf("extended recall %.3f below OR %.3f", extc.Recall(), or.Recall())
	}
	if extc.Predictions() < or.Predictions() || extc.Predictions() < seas.Predictions() {
		t.Error("extended ensemble predicted less than a member")
	}
	// The seasonal predictor must stay silent at daily granularity.
	daily, err := eval.Evaluate(det.Histories(), det.Splits().Test,
		[]predict.Predictor{det.Seasonal()}, eval.Options{Sizes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if daily.BySize["seasonal"][1].Predictions() != 0 {
		t.Error("seasonal predictor fired on daily windows")
	}
}

// TestDirtyFieldsGauge: core sets wikistale_train_incremental_dirty_fields
// once per training to the size of the delta it derived, and to 0 on a
// cold or forced build.
func TestDirtyFieldsGauge(t *testing.T) {
	det, _ := detector(t)
	gauge := func() float64 { return obs.Default.Gauge(obs.IncrementalDirtyFields, nil).Value() }
	hs := det.Histories()
	// One extra change day, inside the span, on three fields.
	updates := make(map[changecube.FieldKey][]timeline.Day)
	for _, h := range hs.Histories()[:3] {
		first, _ := h.First()
		updates[h.Field] = []timeline.Day{first + 1}
	}
	next, err := hs.MergeDays(updates)
	if err != nil {
		t.Fatal(err)
	}
	want := len(next.ChangedSince(hs))
	if want == 0 {
		t.Fatal("fixture changed no field")
	}
	for _, tc := range []struct {
		name  string
		hints TrainHints
		want  int
	}{
		{"cold", TrainHints{}, 0},
		{"incremental", TrainHints{Prev: det}, want},
		{"forced", TrainHints{Prev: det, ForceFull: true}, 0},
	} {
		obs.Default.Gauge(obs.IncrementalDirtyFields, nil).Set(-1)
		if _, err := TrainFilteredHintedCtx(context.Background(), next, det.FilterStats(), DefaultConfig(), tc.hints); err != nil {
			t.Fatal(err)
		}
		if g := gauge(); g != float64(tc.want) {
			t.Fatalf("%s: dirty_fields gauge = %v, want %d", tc.name, g, tc.want)
		}
	}
}

package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/timeline"
)

var (
	once       sync.Once
	testCorpus *Corpus
	testReport *eval.Report
	testErr    error
)

func prepared(t *testing.T) (*Corpus, *eval.Report) {
	t.Helper()
	once.Do(func() {
		testCorpus, testErr = Prepare(dataset.Small(), core.DefaultConfig())
		if testErr != nil {
			return
		}
		testReport, testErr = testCorpus.EvaluateTest()
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testCorpus, testReport
}

func TestTable1Format(t *testing.T) {
	_, report := prepared(t)
	text := Table1(report)
	for _, want := range []string{
		"Table 1", "mean baseline", "threshold baseline", "field correlations",
		"association rules", "AND-ensemble", "OR-ensemble", "windows w/ changes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Table1 output lacks %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 2+6+1+1 { // two header lines, six predictors, changed row
		t.Errorf("Table1 has %d lines:\n%s", len(lines), text)
	}
}

func TestFigure3Histogram(t *testing.T) {
	c, _ := prepared(t)
	hist, text := Figure3(c)
	if len(hist) == 0 {
		t.Fatal("empty histogram")
	}
	total := 0
	maxRules := 0
	for n, templates := range hist {
		total += n * templates
		if n > maxRules {
			maxRules = n
		}
	}
	if total != c.Detector.AssociationRules().NumRules() {
		t.Errorf("histogram mass %d != rule count %d", total, c.Detector.AssociationRules().NumRules())
	}
	// The oversized election template must dominate the tail, as in the
	// paper's Figure 3 (one template with far more rules than the rest).
	if maxRules < 20 {
		t.Errorf("max rules per template = %d, expected a heavy tail", maxRules)
	}
	if !strings.Contains(text, "Figure 3") {
		t.Error("missing caption")
	}
}

func TestFigure4Series(t *testing.T) {
	_, report := prepared(t)
	text := Figure4(report)
	if !strings.Contains(text, "Figure 4") || !strings.Contains(text, "week") {
		t.Error("missing caption")
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	// Caption + two header rows + 52 weeks.
	if len(lines) != 3+52 {
		t.Errorf("Figure 4 has %d lines, want 55", len(lines))
	}
}

func TestGridThetaReport(t *testing.T) {
	c, _ := prepared(t)
	results, text, err := GridTheta(c, []float64{0.05, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if !strings.Contains(text, "θ") {
		t.Error("missing theta in report")
	}
}

func TestGridAprioriReport(t *testing.T) {
	c, _ := prepared(t)
	results, text, err := GridApriori(c, []float64{0.0025}, []float64{0.6}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if !strings.Contains(text, "minsup") {
		t.Error("missing header")
	}
}

func TestFunnelReportSharesOfTotal(t *testing.T) {
	c, _ := prepared(t)
	text := FunnelReport(c)
	if !strings.Contains(text, "bot reverts") || !strings.Contains(text, "surviving") {
		t.Errorf("funnel report incomplete:\n%s", text)
	}
}

func TestOverlapReport(t *testing.T) {
	_, report := prepared(t)
	text := OverlapReport(report)
	for _, size := range timeline.StandardSizes {
		if !strings.Contains(text, "both") {
			t.Errorf("overlap report lacks counts for size %d:\n%s", size, text)
		}
	}
}

func TestCaseStudyDetectsPlantedStaleness(t *testing.T) {
	c, _ := prepared(t)
	detected, text := CaseStudy(c)
	if detected == 0 {
		t.Fatalf("case study detected nothing:\n%s", text)
	}
	if !strings.Contains(text, "Handball-Bundesliga") {
		t.Errorf("case study page missing:\n%s", text)
	}
	cs := c.Truth.CaseStudy
	typo := fmt.Sprintf(" to %d — truncation typo, intended value likely %d\n", cs.TypoValue, cs.TypoIntended)
	if !strings.Contains(text, "value anomaly: total_goals fell from ") || !strings.Contains(text, typo) {
		t.Errorf("case study lacks the planted typo %q:\n%s", typo, text)
	}
}

func TestStatsReport(t *testing.T) {
	c, report := prepared(t)
	text := StatsReport(c, report)
	for _, want := range []string{"raw changes", "430", "windows containing changes", "pages covered"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats report lacks %q:\n%s", want, text)
		}
	}
}

// TestTableOneMeetsPaperShape is the repository's headline integration
// assertion: on the synthetic corpus, the qualitative result of the paper
// holds end to end.
func TestTableOneMeetsPaperShape(t *testing.T) {
	_, report := prepared(t)
	for _, size := range timeline.StandardSizes {
		for _, name := range []string{"field correlations", "association rules", "OR-ensemble"} {
			c := report.BySize[name][size]
			if c.Precision() < 0.85 {
				t.Errorf("%s at %dd: precision %.3f below target", name, size, c.Precision())
			}
		}
		mean := report.BySize["mean baseline"][size]
		if mean.Precision() >= 0.85 {
			t.Errorf("mean baseline at %dd unexpectedly meets the target", size)
		}
		or := report.BySize["OR-ensemble"][size]
		and := report.BySize["AND-ensemble"][size]
		corr := report.BySize["field correlations"][size]
		assoc := report.BySize["association rules"][size]
		if or.Recall() < corr.Recall() || or.Recall() < assoc.Recall() {
			t.Errorf("OR recall not the max at %dd", size)
		}
		if and.Recall() > corr.Recall() || and.Recall() > assoc.Recall() {
			t.Errorf("AND recall not the min at %dd", size)
		}
	}
	// Threshold baseline makes no predictions at the daily granularity
	// (the paper: no field changed in >=311 of 365 validation days).
	if report.BySize["threshold baseline"][1].Predictions() != 0 {
		t.Error("threshold baseline made daily predictions")
	}
}

func TestExtensionReport(t *testing.T) {
	c, _ := prepared(t)
	report, text, err := Extension(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seasonal", "family correlations", "OR-ensemble", "extended OR-ensemble"} {
		if !strings.Contains(text, want) {
			t.Errorf("extension report lacks %q", want)
		}
	}
	for _, size := range timeline.StandardSizes {
		or := report.BySize["OR-ensemble"][size]
		ext := report.BySize["extended OR-ensemble"][size]
		if ext.Recall() < or.Recall() {
			t.Errorf("extension lost recall at %dd: %.3f < %.3f", size, ext.Recall(), or.Recall())
		}
	}
	// The family-correlation member must meet the precision target on its
	// own (page-local evidence).
	fc := report.BySize["family correlations"][7]
	if fc.Predictions() > 0 && fc.Precision() < 0.80 {
		t.Errorf("family correlations precision %.3f too low", fc.Precision())
	}
}

func TestByTemplateReport(t *testing.T) {
	c, _ := prepared(t)
	report, text, err := ByTemplate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.ByTemplate["OR-ensemble"]) == 0 {
		t.Fatal("no per-template counts")
	}
	if !strings.Contains(text, "template") || !strings.Contains(text, "P[%]") {
		t.Errorf("report malformed:\n%s", text)
	}
	// Per-template counts sum to the overall 7d counts.
	var sum eval.Counts
	for _, counts := range report.ByTemplate["OR-ensemble"] {
		sum.Add(counts)
	}
	if sum != report.BySize["OR-ensemble"][7] {
		t.Fatalf("per-template sum %+v != total %+v", sum, report.BySize["OR-ensemble"][7])
	}
}

func TestFigureSVGs(t *testing.T) {
	c, report := prepared(t)
	svg3, err := Figure3SVG(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg3, "<svg") || !strings.Contains(svg3, "Figure 3") {
		t.Error("figure3 SVG malformed")
	}
	svg4, err := Figure4SVG(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg4, "85% target") || strings.Count(svg4, "<polyline") != 8 {
		t.Error("figure4 SVG malformed")
	}
	// A report without the weekly series cannot back Figure 4.
	bare, err := eval.Evaluate(c.Filtered, c.Detector.Splits().Test,
		c.Detector.Predictors(), eval.Options{Sizes: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure4SVG(bare); err == nil {
		t.Error("report without over-time series accepted")
	}
}

func TestExportJSON(t *testing.T) {
	c, report := prepared(t)
	data, err := ExportJSON(c, report)
	if err != nil {
		t.Fatal(err)
	}
	var back ReportJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if back.Fields != c.Filtered.Len() || back.RawChanges != c.Cube.NumChanges() {
		t.Fatalf("metadata wrong: %+v", back)
	}
	// 6 predictors x 4 sizes.
	if len(back.Results) != 24 {
		t.Fatalf("results = %d, want 24", len(back.Results))
	}
	for _, r := range back.Results {
		if r.TP+r.FP != r.Predictions {
			t.Fatalf("inconsistent counts: %+v", r)
		}
	}
}

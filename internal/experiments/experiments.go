// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic corpus: Table 1 (precision, recall
// and prediction counts for all six predictors at four granularities),
// Figure 3 (association rules per template), Figure 4 (precision and
// recall per week over the test year), the two §5.2 grid searches, the §4
// filter funnel, the §5.3.4 prediction-overlap analysis, the §5.4
// ground-truth case study, and the §5.1 dataset statistics. The same entry
// points back cmd/experiments and the repository benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/wikistale/wikistale/internal/baseline"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/figures"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
	"github.com/wikistale/wikistale/internal/values"
)

// Corpus bundles a generated dataset with its trained detector.
type Corpus struct {
	Cube     *changecube.Cube
	Truth    *dataset.Truth
	Filtered *changecube.HistorySet
	Funnel   filter.Stats
	Detector *core.Detector
	CoreCfg  core.Config
}

// Prepare generates a corpus and trains the full detector on it.
func Prepare(datasetCfg dataset.Config, coreCfg core.Config) (*Corpus, error) {
	cube, truth, err := dataset.Generate(datasetCfg)
	if err != nil {
		return nil, err
	}
	hs, stats, err := filter.Apply(cube, coreCfg.Filter)
	if err != nil {
		return nil, err
	}
	det, err := core.TrainFiltered(hs, stats, coreCfg)
	if err != nil {
		return nil, err
	}
	return &Corpus{
		Cube:     cube,
		Truth:    truth,
		Filtered: hs,
		Funnel:   stats,
		Detector: det,
		CoreCfg:  coreCfg,
	}, nil
}

// EvaluateTest runs the shared test-year evaluation backing Table 1,
// Figure 4 and the overlap analysis: all four window sizes, the 7-day
// over-time series, and the overlap between the two proposed predictors
// (indices 2 and 3 in the paper's row order).
func (c *Corpus) EvaluateTest() (*eval.Report, error) {
	return c.Detector.EvaluateTest(eval.Options{
		Sizes:        timeline.StandardSizes,
		OverTimeSize: 7,
		OverlapPairs: [][2]int{{2, 3}},
	})
}

// Table1 formats the report in the paper's Table 1 layout.
func Table1(report *eval.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: precision, recall, and number of predictions on the test set\n")
	fmt.Fprintf(&b, "%-20s", "")
	for _, size := range timeline.StandardSizes {
		fmt.Fprintf(&b, " | %22s", fmt.Sprintf("%d day(s)", size))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-20s", "predictor")
	for range timeline.StandardSizes {
		fmt.Fprintf(&b, " | %6s %6s %8s", "P[%]", "R[%]", "#")
	}
	b.WriteString("\n")
	for _, name := range report.Predictors {
		fmt.Fprintf(&b, "%-20s", name)
		for _, size := range timeline.StandardSizes {
			c := report.BySize[name][size]
			fmt.Fprintf(&b, " | %6.2f %6.2f %8d", 100*c.Precision(), 100*c.Recall(), c.Predictions())
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-20s", "windows w/ changes")
	for _, size := range timeline.StandardSizes {
		anyName := report.Predictors[0]
		fmt.Fprintf(&b, " | %22d", report.BySize[anyName][size].Changed())
	}
	b.WriteString("\n")
	return b.String()
}

// Figure3 builds the rules-per-template distribution: for each rule count,
// how many templates discovered exactly that many rules.
func Figure3(c *Corpus) (map[int]int, string) {
	per := c.Detector.AssociationRules().RulesPerTemplate()
	histogram := make(map[int]int)
	maxRules := 0
	for _, n := range per {
		histogram[n]++
		if n > maxRules {
			maxRules = n
		}
	}
	var counts []int
	for n := range histogram {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: number of association rules discovered per infobox template\n")
	fmt.Fprintf(&b, "(total rules %d across %d templates with rules; max %d rules in one template)\n",
		c.Detector.AssociationRules().NumRules(), len(per), maxRules)
	fmt.Fprintf(&b, "%10s  %s\n", "#rules", "#templates")
	for _, n := range counts {
		fmt.Fprintf(&b, "%10d  %-6d %s\n", n, histogram[n], strings.Repeat("#", min(histogram[n], 60)))
	}
	return histogram, b.String()
}

// Figure4 renders the per-week precision and recall series of the four
// predictors shown in the paper's Figure 4.
func Figure4(report *eval.Report) string {
	shown := []string{"field correlations", "association rules", "AND-ensemble", "OR-ensemble"}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: precision and recall over time (7-day windows, test set)\n")
	fmt.Fprintf(&b, "%5s", "week")
	for _, name := range shown {
		fmt.Fprintf(&b, " | %14s", abbreviate(name))
	}
	fmt.Fprintf(&b, "\n%5s", "")
	for range shown {
		fmt.Fprintf(&b, " | %6s %7s", "P[%]", "R[%]")
	}
	b.WriteString("\n")
	weeks := len(report.OverTime[shown[0]])
	for w := 0; w < weeks; w++ {
		fmt.Fprintf(&b, "%5d", w)
		for _, name := range shown {
			c := report.OverTime[name][w]
			fmt.Fprintf(&b, " | %6.1f %7.1f", 100*c.Precision(), 100*c.Recall())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func abbreviate(name string) string {
	switch name {
	case "field correlations":
		return "field corr."
	case "association rules":
		return "assoc. rules"
	default:
		return name
	}
}

// Figure3SVG renders Figure 3 as a standalone SVG chart.
func Figure3SVG(c *Corpus) (string, error) {
	histogram, _ := Figure3(c)
	return figures.Figure3(histogram)
}

// Figure4SVG renders Figure 4 as a standalone SVG chart from the report's
// weekly series.
func Figure4SVG(report *eval.Report) (string, error) {
	if report.OverTime == nil {
		return "", fmt.Errorf("experiments: report lacks the over-time series")
	}
	shown := []string{"field correlations", "association rules", "AND-ensemble", "OR-ensemble"}
	series := make([]figures.Figure4Series, 0, len(shown))
	for _, name := range shown {
		weekly := report.OverTime[name]
		s := figures.Figure4Series{Name: name}
		for _, counts := range weekly {
			s.Precision = append(s.Precision, 100*counts.Precision())
			s.Recall = append(s.Recall, 100*counts.Recall())
		}
		series = append(series, s)
	}
	return figures.Figure4(series)
}

// GridTheta runs the §5.2 correlation-threshold sweep on the validation
// year at daily granularity, as in the paper.
func GridTheta(c *Corpus, thetas []float64) ([]core.ThetaResult, string, error) {
	results, err := core.GridSearchTheta(c.Filtered, c.Detector.Splits(), thetas, c.CoreCfg.Correlation, 1)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Grid search over correlation threshold θ (validation set, 1-day windows)\n")
	fmt.Fprintf(&b, "%8s %8s %8s %8s %10s\n", "theta", "P[%]", "R[%]", "#rules", "#preds")
	for _, r := range results {
		fmt.Fprintf(&b, "%8.3f %8.2f %8.2f %8d %10d\n",
			r.Theta, 100*r.Counts.Precision(), 100*r.Counts.Recall(), r.NumRules, r.Counts.Predictions())
	}
	if best, ok := core.BestTheta(results, 0.85); ok {
		fmt.Fprintf(&b, "selected θ = %.3f (highest recall above 85%% precision)\n", best.Theta)
	} else {
		fmt.Fprintf(&b, "no θ meets the 85%% precision target on this corpus\n")
	}
	return results, b.String(), nil
}

// GridApriori runs the §5.2 Apriori parameter sweep on the validation year
// at daily granularity.
func GridApriori(c *Corpus, supports, confidences, valFractions []float64) ([]core.AprioriResult, string, error) {
	results, err := core.GridSearchApriori(c.Filtered, c.Detector.Splits(),
		supports, confidences, valFractions, c.CoreCfg.AssocRules, 1)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Grid search over Apriori parameters (validation set, 1-day windows)\n")
	fmt.Fprintf(&b, "%10s %10s %8s %8s %8s %8s\n", "minsup", "minconf", "val", "P[%]", "R[%]", "#rules")
	for _, r := range results {
		fmt.Fprintf(&b, "%10.4f %10.2f %8.2f %8.2f %8.2f %8d\n",
			r.MinSupport, r.MinConfidence, r.ValidationFraction,
			100*r.Counts.Precision(), 100*r.Counts.Recall(), r.NumRules)
	}
	if best, ok := core.BestApriori(results, 0.85); ok {
		fmt.Fprintf(&b, "selected minsup %.4f, minconf %.2f, validation %.2f\n",
			best.MinSupport, best.MinConfidence, best.ValidationFraction)
	} else {
		fmt.Fprintf(&b, "no grid point meets the 85%% precision target on this corpus\n")
	}
	return results, b.String(), nil
}

// FunnelReport renders the §4 noise funnel with the paper's convention:
// each stage's removal as a share of the original change count.
func FunnelReport(c *Corpus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Filter funnel (shares of the raw change count, as in §4 of the paper)\n")
	total := 0
	if len(c.Funnel.Stages) > 0 {
		total = c.Funnel.Stages[0].In
	}
	for _, st := range c.Funnel.Stages {
		ofTotal := 0.0
		if total > 0 {
			ofTotal = float64(st.In-st.Out) / float64(total)
		}
		fmt.Fprintf(&b, "%-15s removes %7.3f%% of raw changes (%d -> %d)\n",
			st.Name, 100*ofTotal, st.In, st.Out)
	}
	fmt.Fprintf(&b, "%-15s %7.2f%% of raw changes remain (%d fields)\n",
		"surviving", 100*c.Funnel.Survival(), c.Filtered.Len())
	return b.String()
}

// OverlapReport renders the §5.3.4 analysis: the share of each predictor's
// predictions also made by the other.
func OverlapReport(report *eval.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prediction overlap between field correlations (A) and association rules (B)\n")
	fmt.Fprintf(&b, "%8s %8s %8s %8s %10s %10s\n", "window", "both", "only A", "only B", "A∩B/A [%]", "A∩B/B [%]")
	for _, size := range timeline.StandardSizes {
		oc := report.Overlaps[eval.OverlapKey("field correlations", "association rules", size)]
		fmt.Fprintf(&b, "%7dd %8d %8d %8d %10.1f %10.1f\n",
			size, oc.Both, oc.OnlyA, oc.OnlyB, 100*oc.FractionA(), 100*oc.FractionB())
	}
	return b.String()
}

// CaseStudy reruns the §5.4 ground-truth investigation: the planted
// Handball-Bundesliga season whose total_goals misses three updates that
// the matches ↔ total_goals rule catches.
func CaseStudy(c *Corpus) (detected int, text string) {
	cs := c.Truth.CaseStudy
	cube := c.Cube
	var b strings.Builder
	page := cube.Pages.Name(int32(cube.Page(cs.Entity)))
	template := cube.Templates.Name(int32(cube.Template(cs.Entity)))
	fmt.Fprintf(&b, "Case study (§5.4): %q (template %q)\n", page, template)
	fmt.Fprintf(&b, "planted missed total_goals updates on %d match days\n", len(cs.MissedDays))
	for _, missed := range cs.MissedDays {
		alerts := c.Detector.DetectStale(missed+2, 3)
		hit := false
		for _, a := range alerts {
			if a.Field == cs.TotalGoals {
				hit = true
				detected++
				fmt.Fprintf(&b, "  %s: STALE — %s\n", missed, a.Explanation)
			}
		}
		if !hit {
			fmt.Fprintf(&b, "  %s: not flagged\n", missed)
		}
	}
	fmt.Fprintf(&b, "detected %d of %d planted stale values\n", detected, len(cs.MissedDays))

	// The paper's second §5.4 observation: the goals tally itself carries a
	// truncation typo that editors faithfully incremented for months.
	var goalValues []string
	cube.Sort()
	cube.EachChange(func(_ int, ch changecube.Change) bool {
		if ch.Kind == changecube.Update && ch.Entity == cs.TotalGoals.Entity && ch.Property == cs.TotalGoals.Property {
			goalValues = append(goalValues, ch.Value)
		}
		return true
	})
	if values.IsCounter(goalValues, 5, 0.8) {
		for _, a := range values.DetectCounterAnomalies(goalValues) {
			if a.Kind == values.TruncationTypo {
				fmt.Fprintf(&b, "value anomaly: total_goals fell from %d to %d — %s, intended value likely %d\n",
					a.Prev, a.Value, a.Kind, a.Suggestion)
			} else {
				fmt.Fprintf(&b, "value anomaly: total_goals fell from %d to %d (%s)\n", a.Prev, a.Value, a.Kind)
			}
		}
	}
	return detected, b.String()
}

// Extension evaluates the §6 future-work ensemble: the OR-ensemble
// widened with the seasonal predictor, against the paper's OR-ensemble and
// the seasonal predictor alone, on the test year.
func Extension(c *Corpus) (*eval.Report, string, error) {
	predictors := []predict.Predictor{
		baseline.DefaultForecast(),
		c.Detector.Seasonal(),
		c.Detector.FamilyCorrelations(),
		c.Detector.OrEnsemble(),
		c.Detector.ExtendedOrEnsemble(),
	}
	report, err := eval.Evaluate(c.Filtered, c.Detector.Splits().Test, predictors,
		eval.Options{Sizes: timeline.StandardSizes})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§6 future work): seasonality and family-correlation predictors,\n")
	fmt.Fprintf(&b, "plus the forecasting baseline the paper's introduction rules out\n")
	fmt.Fprintf(&b, "seasonal anchors cover %d fields; %d family rules across %d families\n",
		c.Detector.Seasonal().NumCovered(),
		c.Detector.FamilyCorrelations().NumRules(),
		c.Detector.FamilyCorrelations().Families())
	fmt.Fprintf(&b, "%-22s", "predictor")
	for _, size := range timeline.StandardSizes {
		fmt.Fprintf(&b, " | %6s %6s (%4dd)", "P[%]", "R[%]", size)
	}
	b.WriteString("\n")
	for _, name := range report.Predictors {
		fmt.Fprintf(&b, "%-22s", name)
		for _, size := range timeline.StandardSizes {
			cc := report.BySize[name][size]
			fmt.Fprintf(&b, " | %6.2f %6.2f        ", 100*cc.Precision(), 100*cc.Recall())
		}
		b.WriteString("\n")
	}
	return report, b.String(), nil
}

// ByTemplate evaluates the OR-ensemble per template at weekly granularity
// — the drill-down that shows which templates carry the precision and
// which the recall.
func ByTemplate(c *Corpus) (*eval.Report, string, error) {
	report, err := eval.Evaluate(c.Filtered, c.Detector.Splits().Test,
		[]predict.Predictor{c.Detector.OrEnsemble()},
		eval.Options{Sizes: []int{7}, ByTemplateSize: 7})
	if err != nil {
		return nil, "", err
	}
	perTemplate := report.ByTemplate["OR-ensemble"]
	type row struct {
		name   string
		counts eval.Counts
	}
	var rows []row
	for template, counts := range perTemplate {
		if counts.Predictions() == 0 {
			continue
		}
		rows = append(rows, row{name: c.Cube.Templates.Name(int32(template)), counts: counts})
	}
	sort.Slice(rows, func(i, j int) bool {
		if pi, pj := rows[i].counts.Predictions(), rows[j].counts.Predictions(); pi != pj {
			return pi > pj
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Per-template OR-ensemble results (7-day windows, test set)\n")
	fmt.Fprintf(&b, "%-40s %8s %8s %8s %8s\n", "template", "P[%]", "R[%]", "#preds", "changed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s %8.2f %8.2f %8d %8d\n",
			r.name, 100*r.counts.Precision(), 100*r.counts.Recall(),
			r.counts.Predictions(), r.counts.Changed())
	}
	return report, b.String(), nil
}

// StatsReport renders the §5.1 dataset and window statistics.
func StatsReport(c *Corpus, report *eval.Report) string {
	var b strings.Builder
	splits := c.Detector.Splits()
	fmt.Fprintf(&b, "Dataset statistics (§5.1)\n")
	fmt.Fprintf(&b, "raw changes:        %d\n", c.Cube.NumChanges())
	fmt.Fprintf(&b, "filtered changes:   %d\n", c.Filtered.TotalChanges())
	fmt.Fprintf(&b, "fields (>=5 chg):   %d\n", c.Filtered.Len())
	fmt.Fprintf(&b, "entities:           %d\n", c.Cube.NumEntities())
	fmt.Fprintf(&b, "templates:          %d\n", c.Cube.Templates.Len())
	fmt.Fprintf(&b, "pages:              %d\n", c.Cube.Pages.Len())
	fmt.Fprintf(&b, "train span:         %s (%d days)\n", splits.Train, splits.Train.Len())
	fmt.Fprintf(&b, "validation span:    %s (%d days)\n", splits.Validation, splits.Validation.Len())
	fmt.Fprintf(&b, "test span:          %s (%d days)\n", splits.Test, splits.Test.Len())
	perField := 0
	for _, size := range timeline.StandardSizes {
		perField += timeline.WindowsPerYear(size)
	}
	fmt.Fprintf(&b, "predictions/field:  %d (365x1d + 52x7d + 12x30d + 1x365d)\n", perField)
	fmt.Fprintf(&b, "windows containing changes:\n")
	for _, size := range timeline.StandardSizes {
		fmt.Fprintf(&b, "  %4dd: %d\n", size, report.BySize[report.Predictors[0]][size].Changed())
	}
	pages := c.Detector.AssociationRules().CoveredPages(c.Cube)
	fmt.Fprintf(&b, "pages covered by association rules: %d\n", pages)
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

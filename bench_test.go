// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §2 for the experiment index) plus ablations over the
// design decisions DESIGN.md §3 calls out. Each benchmark measures the
// compute of one experiment on the test-scale corpus; absolute quality
// numbers are attached as custom metrics where they are the experiment's
// point. Run cmd/experiments for the full formatted outputs.
package wikistale_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/wikistale/wikistale/internal/apriori"
	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/experiments"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/revision"
	"github.com/wikistale/wikistale/internal/timeline"
	"github.com/wikistale/wikistale/internal/wikitext"

	"github.com/wikistale/wikistale/internal/core"
)

var (
	benchOnce   sync.Once
	benchCorpus *experiments.Corpus
	benchReport *eval.Report
	benchErr    error
)

// corpus prepares the shared benchmark corpus and trained detector once.
func corpus(b *testing.B) *experiments.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus, benchErr = experiments.Prepare(dataset.Small(), core.DefaultConfig())
		if benchErr != nil {
			return
		}
		benchReport, benchErr = benchCorpus.EvaluateTest()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCorpus
}

// BenchmarkTable1Evaluate regenerates Table 1: the full test-year
// evaluation of all six predictors at all four window sizes (E1).
func BenchmarkTable1Evaluate(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var report *eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = c.Detector.EvaluateTest(eval.Options{Sizes: timeline.StandardSizes})
		if err != nil {
			b.Fatal(err)
		}
	}
	or := report.BySize["OR-ensemble"][7]
	b.ReportMetric(100*or.Precision(), "OR-precision-7d-%")
	b.ReportMetric(100*or.Recall(), "OR-recall-7d-%")
}

// BenchmarkFigure3RuleMining regenerates Figure 3: association-rule mining
// and validation over the training span (E2).
func BenchmarkFigure3RuleMining(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var rules int
	for i := 0; i < b.N; i++ {
		p, err := assocrules.Train(c.Filtered, c.Detector.Splits().TrainVal, c.CoreCfg.AssocRules)
		if err != nil {
			b.Fatal(err)
		}
		rules = p.NumRules()
	}
	b.ReportMetric(float64(rules), "rules")
}

// BenchmarkFigure4OverTime regenerates Figure 4: the weekly precision and
// recall series over the 52 test weeks (E3).
func BenchmarkFigure4OverTime(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := c.Detector.EvaluateTest(eval.Options{Sizes: []int{7}, OverTimeSize: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSearchTheta regenerates the §5.2 correlation-threshold
// sweep (E4).
func BenchmarkGridSearchTheta(b *testing.B) {
	c := corpus(b)
	thetas := []float64{0.01, 0.05, 0.1, 0.15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.GridTheta(c, thetas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSearchApriori regenerates the §5.2 Apriori parameter sweep
// (E5).
func BenchmarkGridSearchApriori(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.GridApriori(c,
			[]float64{0.0025, 0.01}, []float64{0.6, 0.75}, []float64{0.1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterPipeline regenerates the §4 noise funnel (E6).
func BenchmarkFilterPipeline(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var survival float64
	for i := 0; i < b.N; i++ {
		_, stats, err := filter.Apply(c.Cube, c.CoreCfg.Filter)
		if err != nil {
			b.Fatal(err)
		}
		survival = stats.Survival()
	}
	b.ReportMetric(100*survival, "survival-%")
}

// BenchmarkOverlapAnalysis regenerates the §5.3.4 prediction-overlap
// analysis (E7).
func BenchmarkOverlapAnalysis(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var report *eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = c.Detector.EvaluateTest(eval.Options{
			Sizes:        []int{7},
			OverlapPairs: [][2]int{{2, 3}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	oc := report.Overlaps[eval.OverlapKey("field correlations", "association rules", 7)]
	b.ReportMetric(100*oc.FractionA(), "overlap-A-%")
	b.ReportMetric(100*oc.FractionB(), "overlap-B-%")
}

// BenchmarkCaseStudyDetection regenerates the §5.4 ground-truth case study
// (E8): detecting the planted missed updates via DetectStale.
func BenchmarkCaseStudyDetection(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var detected int
	for i := 0; i < b.N; i++ {
		detected, _ = experiments.CaseStudy(c)
	}
	b.ReportMetric(float64(detected), "detected")
}

// BenchmarkDatasetGenerate measures corpus generation (the substrate for
// every experiment, E9's dataset statistics included).
func BenchmarkDatasetGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := dataset.Generate(dataset.Small()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainCorrelation measures the page-local pairwise correlation
// search on the training span — the dominant cost of one (re)train.
func BenchmarkTrainCorrelation(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var rules int
	for i := 0; i < b.N; i++ {
		p, err := correlation.Train(c.Filtered, c.Detector.Splits().TrainVal, c.CoreCfg.Correlation)
		if err != nil {
			b.Fatal(err)
		}
		rules = p.NumRules()
	}
	b.ReportMetric(float64(rules), "rules")
}

// BenchmarkMineApriori measures the raw Apriori mining step over the
// per-template (infobox, week) transactions of the training span — the
// inner loop of assocrules.Train and of every Apriori grid point.
func BenchmarkMineApriori(b *testing.B) {
	c := corpus(b)
	cfg := c.CoreCfg.AssocRules
	txns := assocrules.BuildTransactions(c.Filtered, c.Detector.Splits().TrainVal, cfg.PeriodDays)
	mineCfg := apriori.Config{MinSupport: cfg.MinSupport, MinConfidence: cfg.MinConfidence, MaxLen: 2}
	b.ResetTimer()
	var rules int
	for i := 0; i < b.N; i++ {
		rules = 0
		for _, ts := range txns {
			mined, err := apriori.Mine(ts, mineCfg)
			if err != nil {
				b.Fatal(err)
			}
			rules += len(mined)
		}
	}
	b.ReportMetric(float64(rules), "rules")
}

// BenchmarkDetectStale measures the deployment operation: one full scan
// for stale fields over a weekly window at the end of the data, and the
// past-day questions of an audit, with asOf cycling over the span's last
// 365 days for each of the paper's window sizes.
func BenchmarkDetectStale(b *testing.B) {
	c := corpus(b)
	end := c.Filtered.Span().End
	b.Run("end/window=7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Detector.DetectStale(end, 7)
		}
	})
	for _, window := range timeline.StandardSizes {
		b.Run(fmt.Sprintf("audit/window=%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Detector.DetectStale(end-365+timeline.Day(i%365), window)
			}
		})
	}
}

// BenchmarkPredictSingle measures a single OR-ensemble prediction — the
// per-field cost of the paper's "every field, every day" requirement.
func BenchmarkPredictSingle(b *testing.B) {
	c := corpus(b)
	h := c.Filtered.Histories()[len(c.Filtered.Histories())/2]
	w := timeline.Window{Span: timeline.NewSpan(c.Filtered.Span().End-7, c.Filtered.Span().End)}
	or := c.Detector.OrEnsemble()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := predict.NewContext(c.Filtered, h.Field, w)
		or.Predict(ctx)
	}
}

// BenchmarkWikitextParse measures infobox extraction from markup.
func BenchmarkWikitextParse(b *testing.B) {
	page := `{{Infobox settlement
| name = London
| population_total = 8,799,800 <ref name="pop">{{cite web|url=http://example.org}}</ref>
| coordinates = {{coord|51|30|N|0|7|W}}
| leader_name = [[Sadiq Khan]]
| area_km2 = 1572
}}` + strings.Repeat("\nprose ''text'' with [[links]] and {{templates|x=1}}", 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if boxes := wikitext.ParseInfoboxes(page); len(boxes) != 1 {
			b.Fatal("parse failed")
		}
	}
	b.SetBytes(int64(len(page)))
}

// BenchmarkRevisionDiff measures revision-history extraction into the
// change cube.
func BenchmarkRevisionDiff(b *testing.B) {
	revs := make([]revision.Revision, 0, 50)
	for i := 0; i < 50; i++ {
		revs = append(revs, revision.Revision{
			Time: int64(i) * 86400,
			Text: "{{Infobox club|name=FC|matches=" + strings.Repeat("1", 1+i%5) + "|goals=2}}",
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := revision.NewExtractor(changecube.New())
		if err := x.AddPage("FC", revs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCorrelationNorm compares the two distance
// normalizations of DESIGN.md §3.1: the endpoint-preserving overlap norm
// against the paper's literal length norm, at the same θ.
func BenchmarkAblationCorrelationNorm(b *testing.B) {
	c := corpus(b)
	for _, norm := range []correlation.Norm{correlation.NormOverlap, correlation.NormLength} {
		b.Run(norm.String(), func(b *testing.B) {
			cfg := c.CoreCfg.Correlation
			cfg.Norm = norm
			var counts eval.Counts
			for i := 0; i < b.N; i++ {
				p, err := correlation.Train(c.Filtered, c.Detector.Splits().TrainVal, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report, err := eval.Evaluate(c.Filtered, c.Detector.Splits().Test,
					[]predict.Predictor{p}, eval.Options{Sizes: []int{7}})
				if err != nil {
					b.Fatal(err)
				}
				counts = report.BySize[p.Name()][7]
			}
			b.ReportMetric(100*counts.Precision(), "precision-%")
			b.ReportMetric(100*counts.Recall(), "recall-%")
		})
	}
}

// BenchmarkAblationSupportScope compares per-template against global
// minimum support (DESIGN.md §3.2).
func BenchmarkAblationSupportScope(b *testing.B) {
	c := corpus(b)
	for _, scope := range []assocrules.Scope{assocrules.PerTemplate, assocrules.Global} {
		b.Run(scope.String(), func(b *testing.B) {
			cfg := c.CoreCfg.AssocRules
			cfg.SupportScope = scope
			var rules int
			for i := 0; i < b.N; i++ {
				p, err := assocrules.Train(c.Filtered, c.Detector.Splits().TrainVal, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rules = p.NumRules()
			}
			b.ReportMetric(float64(rules), "rules")
		})
	}
}

// BenchmarkAblationValidationScheme compares the transaction holdout
// against the temporal tail holdout for rule validation (DESIGN.md §3.3).
func BenchmarkAblationValidationScheme(b *testing.B) {
	c := corpus(b)
	for _, scheme := range []assocrules.ValidationScheme{assocrules.HoldoutTransactions, assocrules.HoldoutTail} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := c.CoreCfg.AssocRules
			cfg.ValidationScheme = scheme
			var rules int
			for i := 0; i < b.N; i++ {
				p, err := assocrules.Train(c.Filtered, c.Detector.Splits().TrainVal, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rules = p.NumRules()
			}
			b.ReportMetric(float64(rules), "rules")
		})
	}
}

// BenchmarkExtensionSeasonal regenerates the §6 future-work experiment
// (E10): the OR-ensemble widened with the seasonal predictor.
func BenchmarkExtensionSeasonal(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var report *eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, _, err = experiments.Extension(c)
		if err != nil {
			b.Fatal(err)
		}
	}
	ext := report.BySize["extended OR-ensemble"][30]
	or := report.BySize["OR-ensemble"][30]
	b.ReportMetric(100*(ext.Recall()-or.Recall()), "recall-gain-30d-pp")
	b.ReportMetric(100*ext.Precision(), "ext-precision-30d-%")
}

// BenchmarkAblationCorrelationTolerance compares same-day co-change
// matching with delayed-update tolerances — the variant the paper reports
// trying and rejecting ("same-day worked best").
func BenchmarkAblationCorrelationTolerance(b *testing.B) {
	c := corpus(b)
	for _, tol := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("tolerance-%dd", tol), func(b *testing.B) {
			cfg := c.CoreCfg.Correlation
			cfg.ToleranceDays = tol
			var counts eval.Counts
			var rules int
			for i := 0; i < b.N; i++ {
				p, err := correlation.Train(c.Filtered, c.Detector.Splits().TrainVal, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rules = p.NumRules()
				report, err := eval.Evaluate(c.Filtered, c.Detector.Splits().Test,
					[]predict.Predictor{p}, eval.Options{Sizes: []int{7}})
				if err != nil {
					b.Fatal(err)
				}
				counts = report.BySize[p.Name()][7]
			}
			b.ReportMetric(float64(rules), "rules")
			b.ReportMetric(100*counts.Precision(), "precision-%")
			b.ReportMetric(100*counts.Recall(), "recall-%")
		})
	}
}

// BenchmarkIngestDailyBatch measures folding one day of fresh changes into
// a live detector — the paper's "update the system every day" operation.
func BenchmarkIngestDailyBatch(b *testing.B) {
	c := corpus(b)
	det, err := c.Detector.Retrain() // private detector; ingest mutates it
	if err != nil {
		b.Fatal(err)
	}
	hs := det.Histories()
	end := hs.Span().End
	// A plausible daily batch: one update for every ~50th field.
	var batch []changecube.Change
	for i, h := range hs.Histories() {
		if i%50 != 0 {
			continue
		}
		batch = append(batch, changecube.Change{
			Time:     end.Unix() + int64(i),
			Entity:   h.Field.Entity,
			Property: h.Field.Property,
			Value:    "v",
			Kind:     changecube.Update,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := det.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "batch-changes")
}

// BenchmarkLiveRetrain measures the live path's retrain-to-swap latency:
// the full TrainFiltered pipeline over a warm staging snapshot. After a
// small daily delta it compares a forced full rebuild against the
// incremental path, which derives the delta from the previous detector's
// histories and reuses every stage's work outside it; both produce
// bit-identical detectors (see TestIncrementalRetrainEquivalence).
// span_moved is a restart's first retrain: the previous detector was
// trained a week behind the feed and reloaded from its model bytes, as the
// epoch store boots it, and the week of backlog moves every stage's span,
// so the threshold baseline rebuilds ("span").
func BenchmarkLiveRetrain(b *testing.B) {
	c := corpus(b)
	st, err := ingest.NewStagingFromCube(c.Cube, c.CoreCfg.Filter)
	if err != nil {
		b.Fatal(err)
	}
	hs0, stats0, err := st.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	prev, err := core.TrainFiltered(hs0, stats0, c.CoreCfg)
	if err != nil {
		b.Fatal(err)
	}
	// A small delta: one fresh update on every ~100th known field, one
	// second past the corpus end.
	cube := hs0.Cube()
	end := hs0.Span().End
	var events []ingest.Event
	for i, h := range hs0.Histories() {
		if i%100 != 0 {
			continue
		}
		info := cube.Entity(h.Field.Entity)
		events = append(events, ingest.Event{
			Time:     end.Unix() + int64(i),
			Page:     cube.Pages.Name(int32(info.Page)),
			Template: cube.Templates.Name(int32(info.Template)),
			Property: cube.Properties.Name(int32(h.Field.Property)),
			Value:    "v",
			Kind:     changecube.Update,
		})
	}
	if _, err := st.Append(events); err != nil {
		b.Fatal(err)
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	lagged, seed, err := laggedSeed(c)
	if err != nil {
		b.Fatal(err)
	}
	moved, movedStats, err := lagged.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name      string
		hs        *changecube.HistorySet
		stats     filter.Stats
		prev      *core.Detector
		forceFull bool
	}{
		{"full", hs, stats, prev, true},
		{"incremental", hs, stats, prev, false},
		{"span_moved", moved, movedStats, seed, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dirty := len(mode.hs.ChangedSince(mode.prev.Histories()))
			b.ResetTimer()
			var det *core.Detector
			for i := 0; i < b.N; i++ {
				var err error
				det, err = core.TrainFilteredHintedCtx(context.Background(), mode.hs, mode.stats, c.CoreCfg, core.TrainHints{
					Prev:      mode.prev,
					ForceFull: mode.forceFull,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if mode.name == "span_moved" && det.ThresholdRetrain().FullReason != "span" {
				b.Fatalf("threshold stage rebuilt for %q, want %q", det.ThresholdRetrain().FullReason, "span")
			}
			b.ReportMetric(float64(det.CorrelationRetrain().PagesReused), "pages-reused")
			b.ReportMetric(float64(dirty), "dirty-fields")
		})
	}
}

// laggedSeed replays the bench corpus into a staging up to a week before
// its end and trains there; the detector is then reloaded from its model
// bytes, and the last week is staged. It returns the staging and the
// reloaded detector.
func laggedSeed(c *experiments.Corpus) (*ingest.Staging, *core.Detector, error) {
	ctx := context.Background()
	st, err := ingest.NewStaging(c.CoreCfg.Filter)
	if err != nil {
		return nil, nil, err
	}
	src := ingest.NewStream(c.Cube)
	replay := func(until int) error {
		for src.Remaining() > until {
			events, err := src.Next(ctx)
			if err != nil {
				return err
			}
			if _, err := st.Append(events); err != nil {
				return err
			}
		}
		return nil
	}
	if err := replay(7); err != nil {
		return nil, nil, err
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	trained, err := core.TrainFiltered(hs, stats, c.CoreCfg)
	if err != nil {
		return nil, nil, err
	}
	model, err := trained.MarshalModel()
	if err != nil {
		return nil, nil, err
	}
	seed, err := core.LoadModelBytes(hs, stats, c.CoreCfg, model)
	if err != nil {
		return nil, nil, err
	}
	return st, seed, replay(0)
}

// BenchmarkCubeBinaryRoundTrip measures the single-file serialization used
// by wikigen and staledetect.
func BenchmarkCubeBinaryRoundTrip(b *testing.B) {
	c := corpus(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.Cube.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := changecube.ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

package correlation

// Incremental retraining (DESIGN.md §10.3): the live ingestion path calls
// Train after every batch, but a batch touches a tiny fraction of the
// pages. Correlation rules are strictly page-local — a rule relates two
// fields of one page and depends only on their in-span change days (and,
// under NormLength, the span length) — so pages whose fields and in-span
// day sets are unchanged since the previous training must reproduce their
// previous rules bit for bit. TrainIncremental reuses those and re-runs
// the pairwise search only on dirty pages.

import (
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Previous carries the outcome of the last successful training: the
// predictor whose rules may be reused and the training span it was
// computed over.
type Previous struct {
	Predictor *Predictor
	Span      timeline.Span
}

// IncrementalStats reports what TrainIncremental actually did. The page
// counters satisfy PagesReused + PagesRetrained == PagesTotal (skipped
// pages count as retrained: their emptiness was re-established).
type IncrementalStats struct {
	// Full is true when every page was searched; FullReason then says why:
	// "cold" (no previous predictor), "forced" (caller demanded it), or
	// "norm_span" (span moved under a length-normalized distance, which
	// rescales every pair).
	Full       bool
	FullReason string
	// DirtyFields is the number of fields whose histories differ from the
	// previous training's (0 on a cold or forced build).
	DirtyFields int
	// PagesTotal, PagesReused, PagesRetrained count pages in the history
	// set; PagesSkipped counts the subset of retrained pages dropped by
	// MaxFieldsPerPage.
	PagesTotal     int
	PagesReused    int
	PagesRetrained int
	PagesSkipped   int
}

// TrainIncremental is Train with rule reuse. dirty lists the fields whose
// change histories differ from the previous training's, vanished fields
// included (core derives it with changecube.HistorySet.ChangedSince); prev
// is the last successful training over the same configuration (reusing
// rules across configs is unsound and not detected), and a nil
// prev.Predictor is a cold build. forceFull re-searches every page.
//
// A page is retrained when it contains a dirty field, or — if the span
// moved — any field whose in-span day set differs between the two spans.
// All other pages provably yield identical rules (identical floats
// included: the distance is a function of the in-span day values alone
// under NormOverlap) and are carried over from prev. Under NormLength a
// span change rescales every distance, so it forces a full rebuild.
// The result is bit-identical to Train over the same inputs.
func TrainIncremental(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, dirty map[changecube.FieldKey]bool, forceFull bool) (*Predictor, IncrementalStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, IncrementalStats{}, err
	}
	stats := IncrementalStats{DirtyFields: len(dirty)}
	reason := ""
	switch {
	case forceFull:
		reason = "forced"
	case prev.Predictor == nil:
		reason = "cold"
	case cfg.Norm != NormOverlap && span != prev.Span:
		reason = "norm_span"
	}
	if reason != "" {
		res := searchPages(hs, span, cfg, nil, nil)
		stats.Full, stats.FullReason = true, reason
		stats.PagesTotal = res.pagesTotal
		stats.PagesRetrained = res.pagesSearched
		stats.PagesSkipped = res.pagesSkipped
		recordIncremental(stats)
		return newPredictor(res.rules), stats, nil
	}

	cube := hs.Cube()
	dirtyPages := make(map[changecube.PageID]bool, len(dirty))
	for f := range dirty {
		dirtyPages[cube.Page(f.Entity)] = true
	}
	if span != prev.Span {
		// The live span advances with every batch, which can move a
		// field's day set even when the field itself was untouched.
		for _, h := range hs.Histories() {
			page := cube.Page(h.Field.Entity)
			if dirtyPages[page] {
				continue
			}
			if !h.SameIn(prev.Span, span) {
				dirtyPages[page] = true
			}
		}
	}

	prevByPage := make(map[changecube.PageID][]Rule)
	for _, r := range prev.Predictor.rules {
		page := cube.Page(r.A.Entity)
		prevByPage[page] = append(prevByPage[page], r)
	}

	res := searchPages(hs, span, cfg, func(p changecube.PageID) bool { return dirtyPages[p] }, prevByPage)
	stats.PagesTotal = res.pagesTotal
	stats.PagesReused = res.pagesReused
	stats.PagesRetrained = res.pagesSearched
	stats.PagesSkipped = res.pagesSkipped
	recordIncremental(stats)
	return newPredictor(res.rules), stats, nil
}

// recordIncremental publishes the wikistale_train_incremental_* metrics.
func recordIncremental(s IncrementalStats) {
	if s.Full {
		obs.Default.Counter(obs.IncrementalFullTotal, obs.Labels{"reason": s.FullReason}).Inc()
	} else {
		obs.Default.Counter(obs.IncrementalRetrainsTotal, nil).Inc()
	}
	obs.Default.Counter(obs.IncrementalPagesReusedTotal, nil).Add(uint64(s.PagesReused))
	obs.Default.Counter(obs.IncrementalPagesRetrainedTotal, nil).Add(uint64(s.PagesRetrained))
	obs.Default.Gauge(obs.IncrementalDirtyFields, nil).Set(float64(s.DirtyFields))
}

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
	// PagesTotal, PagesReused, PagesRetrained count pages in the history
	// set; PagesSkipped counts the subset of retrained pages dropped by
	// MaxFieldsPerPage.
	PagesTotal     int
	PagesReused    int
	PagesRetrained int
	PagesSkipped   int
}

// TrainIncremental is Train with rule reuse. delta is what changed since
// prev, the last successful training over the same configuration (reusing
// rules across configs is unsound and not detected); changecube.Cold with
// a zero prev is a cold build.
//
// A page is retrained when changecube.DirtyUnits marks it: it holds a
// changed field, or a field whose in-span days moved with the span. All
// other pages provably yield identical rules (identical floats included:
// the distance is a function of the in-span day values alone under
// NormOverlap) and are carried over from prev. Under NormLength a span
// change rescales every distance, so it forces a full rebuild.
// The result is bit-identical to Train over the same inputs.
func TrainIncremental(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, delta changecube.Delta) (*Predictor, IncrementalStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, IncrementalStats{}, err
	}
	if cfg.Norm != NormOverlap && span != prev.Span {
		delta = delta.Rebuild("norm_span")
	}
	cube := hs.Cube()
	dirty := changecube.DirtyUnits(hs, delta, prev.Span, span, func(f changecube.FieldKey) changecube.PageID {
		return cube.Page(f.Entity)
	})
	prevByPage := make(map[changecube.PageID][]Rule)
	if dirty.Full == "" {
		for _, r := range prev.Predictor.rules {
			page := cube.Page(r.A.Entity)
			prevByPage[page] = append(prevByPage[page], r)
		}
	}

	res := searchPages(hs, span, cfg, dirty.Has, prevByPage)
	stats := IncrementalStats{
		Full:           dirty.Full != "",
		FullReason:     dirty.Full,
		PagesTotal:     res.pagesTotal,
		PagesReused:    res.pagesReused,
		PagesRetrained: res.pagesSearched,
		PagesSkipped:   res.pagesSkipped,
	}
	recordIncremental(stats)
	return newPredictor(res.rules), stats, nil
}

// recordIncremental publishes the wikistale_train_incremental_* counters.
func recordIncremental(s IncrementalStats) {
	if s.Full {
		obs.Default.Counter(obs.IncrementalFullTotal, obs.Labels{"reason": s.FullReason}).Inc()
	} else {
		obs.Default.Counter(obs.IncrementalRetrainsTotal, nil).Inc()
	}
	obs.Default.Counter(obs.IncrementalPagesReusedTotal, nil).Add(uint64(s.PagesReused))
	obs.Default.Counter(obs.IncrementalPagesRetrainedTotal, nil).Add(uint64(s.PagesRetrained))
}

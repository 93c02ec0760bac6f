package staleserve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"github.com/wikistale/wikistale/internal/obs/quality"
)

// Model-quality observability glue: this file renders epochs into the
// quality package's diffable form, attributes each alert to the detector
// families that voted for it, and serves the two debug endpoints. All of
// it runs at swap time or on cold debug requests — never on the
// steady-state /v1/field path, which stays allocation-free.

// SetQualityScorer wires the online alert-outcome scorer: every Swap
// registers its default-window alert set with per-family attribution,
// and GET /debug/quality serves the scorer's report. Call before serving
// (cmd/staleserve wires it together with the ingest event observer).
func (s *Server) SetQualityScorer(sc *quality.Scorer) { s.scorer = sc }

// buildRuleSets renders one epoch's diffable surface: correlation rules,
// association rules, and the default-window alert set, all keyed by
// resolved names so diffs read meaningfully and survive interning-order
// changes across retrains.
func buildRuleSets(ep *epoch) quality.RuleSets {
	rs := quality.RuleSets{
		Seq:    ep.seq,
		AsOf:   ep.span.End.String(),
		Corr:   map[string]float64{},
		Assoc:  map[string]float64{},
		Alerts: map[string]struct{}{},
	}
	cube := ep.cube
	for _, r := range ep.det.FieldCorrelations().Rules() {
		key := fmt.Sprintf("%s.%s<->%s.%s",
			cube.Pages.Name(int32(cube.Page(r.A.Entity))),
			cube.Properties.Name(int32(r.A.Property)),
			cube.Pages.Name(int32(cube.Page(r.B.Entity))),
			cube.Properties.Name(int32(r.B.Property)))
		rs.Corr[key] = r.Distance
	}
	for _, r := range ep.det.AssociationRules().Rules() {
		key := fmt.Sprintf("%s: %s->%s",
			cube.Templates.Name(int32(r.Template)),
			cube.Properties.Name(int32(r.Antecedent)),
			cube.Properties.Name(int32(r.Consequent)))
		rs.Assoc[key] = r.Confidence
	}
	for _, a := range ep.alerts.alerts {
		key := cube.Pages.Name(int32(cube.Page(a.Field.Entity))) + "/" +
			cube.Properties.Name(int32(a.Field.Property))
		rs.Alerts[key] = struct{}{}
	}
	return rs
}

// alertFamilies attributes each default-window alert to the detector
// families whose votes fired for it (core.Detector.Votes — Explain's
// vote list without the evidence resolution), in quality.PendingAlert
// form for the scorer.
func alertFamilies(ep *epoch) []quality.PendingAlert {
	cube := ep.cube
	out := make([]quality.PendingAlert, 0, len(ep.alerts.alerts))
	for _, a := range ep.alerts.alerts {
		var fams []string
		for _, v := range ep.det.Votes(a.Field, ep.span.End, defaultWindow) {
			if v.Fired {
				fams = append(fams, quality.FamilySlug(v.Predictor))
			}
		}
		out = append(out, quality.PendingAlert{
			Page:     cube.Pages.Name(int32(cube.Page(a.Field.Entity))),
			Property: cube.Properties.Name(int32(a.Field.Property)),
			Families: fams,
		})
	}
	return out
}

// observeSwap runs the model-plane bookkeeping of one completed Swap:
// the swap metrics, the prev-vs-next epoch diff (ring + metrics + one
// structured summary line), and the scorer registration. prev is the
// outgoing epoch (nil on the first swap — the diff then reads as
// "everything added", which is exactly what an initial epoch is).
func (s *Server) observeSwap(prev, next *epoch, elapsed time.Duration) {
	s.swapSeconds.Observe(elapsed.Seconds())
	s.swapBytes.Set(float64(len(next.fields.arena)))

	prevSets := quality.RuleSets{}
	if prev != nil {
		prevSets = buildRuleSets(prev)
	}
	d := quality.Diff(prevSets, buildRuleSets(next), quality.DefaultShiftEps)
	s.diffRing.Push(d)
	s.reg.Counter("wikistale_epoch_diff_total", nil).Inc()
	for kind, n := range map[string]int{
		"corr_added":     d.CorrAdded,
		"corr_removed":   d.CorrRemoved,
		"assoc_added":    d.AssocAdded,
		"assoc_removed":  d.AssocRemoved,
		"assoc_shifted":  d.AssocShifted,
		"alerts_entered": d.AlertsEntered,
		"alerts_left":    d.AlertsLeft,
	} {
		s.reg.Counter("wikistale_epoch_diff_changes_total", map[string]string{"kind": kind}).Add(uint64(n))
		s.reg.Gauge("wikistale_epoch_diff_last", map[string]string{"kind": kind}).Set(float64(n))
	}
	s.logger.LogAttrs(context.Background(), slog.LevelInfo, "epoch diff",
		slog.Uint64("from", d.FromSeq),
		slog.Uint64("to", d.ToSeq),
		slog.Int("corr_added", d.CorrAdded),
		slog.Int("corr_removed", d.CorrRemoved),
		slog.Int("assoc_added", d.AssocAdded),
		slog.Int("assoc_removed", d.AssocRemoved),
		slog.Int("assoc_shifted", d.AssocShifted),
		slog.Int("alerts_entered", d.AlertsEntered),
		slog.Int("alerts_left", d.AlertsLeft),
	)

	if s.scorer != nil {
		s.scorer.BeginEpoch(next.seq, int32(next.span.End), alertFamilies(next))
	}
}

// handleQuality serves the scorer's online-precision report.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if s.scorer == nil {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("quality scoring is not enabled"))
		return
	}
	writeJSON(w, http.StatusOK, s.scorer.Snapshot())
}

// handleEpochDiff serves the bounded last-N epoch-diff ring, newest
// first.
func (s *Server) handleEpochDiff(w http.ResponseWriter, r *http.Request) {
	diffs := s.diffRing.Newest()
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(diffs),
		"diffs": diffs,
	})
}

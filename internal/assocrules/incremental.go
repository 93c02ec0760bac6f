package assocrules

// Incremental retraining for association rules, mirroring the correlation
// predictor's page-reuse scheme one level up: rules are strictly
// template-local under PerTemplate support — a template's transactions
// are built from its own entities' in-span change days and nothing else,
// the validation holdout is drawn by a span-independent hash of
// (entity, week), and the precision cut is deterministic. Templates whose
// transactions provably match the previous training therefore reproduce
// their previous rules bit for bit and are carried over; only dirty
// templates are re-grouped, re-mined, and re-validated.

import (
	"context"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Previous carries the outcome of the last successful training: the
// predictor whose per-template rules may be reused and the span it was
// trained over.
type Previous struct {
	Predictor *Predictor
	Span      timeline.Span
}

// IncrementalStats reports what TrainIncremental actually did.
type IncrementalStats struct {
	// Full is true when every template was re-mined; FullReason then says
	// why: "cold" (no previous predictor), "forced" (caller demanded it),
	// "global_scope" (global support couples templates), "span_start"
	// (the span's anchor moved, re-bucketing every week), or "span_tail"
	// (tail holdout under a moved span re-draws every holdout).
	Full       bool
	FullReason string
	// TemplatesTotal counts distinct templates among the histories;
	// TemplatesReused + TemplatesRetrained == TemplatesTotal.
	TemplatesTotal     int
	TemplatesReused    int
	TemplatesRetrained int
}

// TrainIncremental is Train with per-template rule reuse. delta is what
// changed since prev, which must come from the same configuration (reuse
// across configs is unsound and not detected); changecube.Cold with a zero
// prev is a cold build. The result is bit-identical to Train over the same
// inputs. Its grouping, holdout, mining and validation timers
// (train/assoc_*) are children of ctx's trace.
//
// A template is retrained when changecube.DirtyUnits marks it: it holds a
// changed field, or a field whose effective transaction days (in-span days
// below the whole-week cutoff) moved with the span. Week buckets are
// anchored at span.Start, so a moved anchor re-buckets everything and
// forces a full rebuild, as do the two couplings that break template
// locality: global support scope, and the tail holdout under a moved span.
func TrainIncremental(ctx context.Context, hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, delta changecube.Delta) (*Predictor, IncrementalStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, IncrementalStats{}, err
	}
	switch {
	case cfg.SupportScope == Global:
		delta = delta.Rebuild("global_scope")
	case span.Start != prev.Span.Start:
		delta = delta.Rebuild("span_start")
	case cfg.ValidationScheme == HoldoutTail && span != prev.Span:
		delta = delta.Rebuild("span_tail")
	}
	cube := hs.Cube()
	// Only whole weeks feed transactions; the trailing partial week is
	// dropped. A span extension can promote previously dropped days into a
	// completed week, so the rule compares the effective day windows.
	dirty := changecube.DirtyUnits(hs, delta,
		effectiveSpan(prev.Span, cfg.PeriodDays), effectiveSpan(span, cfg.PeriodDays),
		func(f changecube.FieldKey) changecube.TemplateID { return cube.Template(f.Entity) })

	stats := IncrementalStats{Full: dirty.Full != "", FullReason: dirty.Full}
	templates := make(map[changecube.TemplateID]bool)
	for _, h := range hs.Histories() {
		t := cube.Template(h.Field.Entity)
		if !templates[t] {
			templates[t] = true
			if dirty.Has(t) {
				stats.TemplatesRetrained++
			}
		}
	}
	stats.TemplatesTotal = len(templates)
	stats.TemplatesReused = stats.TemplatesTotal - stats.TemplatesRetrained

	// Re-mine the dirty templates only: group, mine, and validate over the
	// subset, then graft the clean templates' previous rules back in.
	_, tspan := obs.StartSpanCtx(ctx, "train/assoc_transactions")
	tagged := buildTaggedFiltered(hs, span, cfg.PeriodDays, dirty.Has)
	tspan.End()
	fresh, err := trainTagged(ctx, tagged, span, cfg)
	if err != nil {
		return nil, IncrementalStats{}, err
	}
	var kept []Rule
	if dirty.Full == "" {
		for _, r := range prev.Predictor.rules {
			if !dirty.Units[r.Template] {
				kept = append(kept, r)
			}
		}
	}
	if len(kept) == 0 {
		return fresh, stats, nil
	}
	return buildPredictor(append(kept, fresh.rules...)), stats, nil
}

// effectiveSpan is the whole-week prefix of span: the window whose days
// actually reach transactions under buildTagged's trailing-week drop.
func effectiveSpan(span timeline.Span, periodDays int) timeline.Span {
	nWeeks := span.Len() / periodDays
	if nWeeks == 0 {
		// Degenerate spans drop nothing (buildTagged keeps every day when
		// nWeeks is zero), so the effective window is the span itself.
		return span
	}
	return timeline.Span{Start: span.Start, End: span.Start + timeline.Day(nWeeks*periodDays)}
}

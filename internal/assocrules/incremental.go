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
	"github.com/wikistale/wikistale/internal/changecube"
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
	// DirtyFields is the number of fields whose histories differ from the
	// previous training's (0 on a cold or forced build).
	DirtyFields int
	// TemplatesTotal counts distinct templates among the histories;
	// TemplatesReused + TemplatesRetrained == TemplatesTotal.
	TemplatesTotal     int
	TemplatesReused    int
	TemplatesRetrained int
}

// TrainIncremental is Train with per-template rule reuse. dirty lists the
// fields whose change histories differ from the previous training's,
// vanished fields included (core derives it with
// changecube.HistorySet.ChangedSince). prev must come from the same
// configuration (reuse across configs is unsound and not detected); a nil
// prev.Predictor is a cold build.
// The result is bit-identical to Train over the same inputs.
//
// A template is retrained when it contains a dirty field or — if the span
// moved — any field whose effective transaction days (in-span days below
// the whole-week cutoff) differ between the two spans. Week buckets are
// anchored at span.Start, so a moved anchor re-buckets everything and
// forces a full rebuild, as do the two couplings that break template
// locality: global support scope, and the tail holdout under a moved span.
func TrainIncremental(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, dirty map[changecube.FieldKey]bool, forceFull bool) (*Predictor, IncrementalStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, IncrementalStats{}, err
	}
	stats := IncrementalStats{DirtyFields: len(dirty)}
	reason := ""
	switch {
	case forceFull:
		reason = "forced"
	case prev.Predictor == nil:
		reason = "cold"
	case cfg.SupportScope == Global:
		reason = "global_scope"
	case span.Start != prev.Span.Start:
		reason = "span_start"
	case cfg.ValidationScheme == HoldoutTail && span != prev.Span:
		reason = "span_tail"
	}
	cube := hs.Cube()
	if reason != "" {
		p, err := Train(hs, span, cfg)
		if err != nil {
			return nil, IncrementalStats{}, err
		}
		stats.Full, stats.FullReason = true, reason
		stats.TemplatesTotal = countTemplates(hs, cube)
		stats.TemplatesRetrained = stats.TemplatesTotal
		return p, stats, nil
	}

	dirtyTemplates := make(map[changecube.TemplateID]bool)
	for f := range dirty {
		dirtyTemplates[cube.Template(f.Entity)] = true
	}
	templates := make(map[changecube.TemplateID]bool)
	if span != prev.Span {
		// Only whole weeks feed transactions; the trailing partial week is
		// dropped. A span extension can promote previously dropped days
		// into a completed week, so compare the effective day windows.
		effPrev := effectiveSpan(prev.Span, cfg.PeriodDays)
		effNow := effectiveSpan(span, cfg.PeriodDays)
		for _, h := range hs.Histories() {
			t := cube.Template(h.Field.Entity)
			templates[t] = true
			if dirtyTemplates[t] {
				continue
			}
			if !h.SameIn(effPrev, effNow) {
				dirtyTemplates[t] = true
			}
		}
	} else {
		for _, h := range hs.Histories() {
			templates[cube.Template(h.Field.Entity)] = true
		}
	}

	stats.TemplatesTotal = len(templates)
	for t := range dirtyTemplates {
		if templates[t] {
			stats.TemplatesRetrained++
		}
	}
	stats.TemplatesReused = stats.TemplatesTotal - stats.TemplatesRetrained

	// Re-mine the dirty templates only: group, mine, and validate over the
	// subset, then graft the clean templates' previous rules back in.
	tagged := buildTaggedFiltered(hs, span, cfg.PeriodDays, func(t changecube.TemplateID) bool {
		return dirtyTemplates[t]
	})
	fresh, err := trainTagged(tagged, span, cfg)
	if err != nil {
		return nil, IncrementalStats{}, err
	}
	var rules []Rule
	if n := len(prev.Predictor.rules) + len(fresh.rules); n > 0 {
		rules = make([]Rule, 0, n)
	}
	for _, r := range prev.Predictor.rules {
		if !dirtyTemplates[r.Template] {
			rules = append(rules, r)
		}
	}
	rules = append(rules, fresh.rules...)
	if len(rules) == 0 {
		// Full training leaves rules nil when nothing survives; match it so
		// the incremental result stays DeepEqual-identical.
		rules = nil
	}
	return buildPredictor(rules), stats, nil
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

// countTemplates counts the distinct templates among the histories.
func countTemplates(hs *changecube.HistorySet, cube *changecube.Cube) int {
	seen := make(map[changecube.TemplateID]bool)
	for _, h := range hs.Histories() {
		seen[cube.Template(h.Field.Entity)] = true
	}
	return len(seen)
}

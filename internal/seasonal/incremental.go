package seasonal

// Incremental retraining: anchors are strictly field-local — a field's
// anchors are a function of its own in-span change days and the config,
// nothing else — so an unchanged field reproduces its previous anchors
// bit for bit. TrainIncremental copies the previous anchor map and
// re-extracts only the dirty fields. A moved span shifts every field's
// in-span window at once, so it falls back to a full rebuild (the live
// span rolls at most once per data day; every retrain in between reuses).

import (
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Previous carries the last successful training and its span.
type Previous struct {
	Predictor *Predictor
	Span      timeline.Span
}

// IncrementalStats reports what TrainIncremental actually did.
type IncrementalStats struct {
	// Full is true when every field was re-extracted; FullReason is
	// "cold", "forced", or "span".
	Full       bool
	FullReason string
	// FieldsRecomputed counts the dirty fields re-extracted on the
	// incremental path.
	FieldsRecomputed int
}

// TrainIncremental is Train with per-field anchor reuse. dirty lists the
// fields whose change histories differ from the previous training's,
// vanished fields included (core derives it with
// changecube.HistorySet.ChangedSince); prev must come from the same
// configuration, and a nil prev.Predictor is a cold build. The result is bit-identical to Train
// over the same inputs.
func TrainIncremental(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, dirty map[changecube.FieldKey]bool, forceFull bool) (*Predictor, IncrementalStats, error) {
	reason := ""
	switch {
	case forceFull:
		reason = "forced"
	case prev.Predictor == nil:
		reason = "cold"
	case span != prev.Span:
		reason = "span"
	}
	if reason != "" {
		p, err := Train(hs, span, cfg)
		if err != nil {
			return nil, IncrementalStats{}, err
		}
		return p, IncrementalStats{Full: true, FullReason: reason}, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, IncrementalStats{}, err
	}

	p := &Predictor{
		anchors:     make(map[changecube.FieldKey][]Anchor, len(prev.Predictor.anchors)),
		tol:         cfg.ToleranceDays,
		minWindow:   cfg.MinWindowDays,
		maxDormancy: timeline.Day(cfg.MaxDormancyDays),
	}
	for f, a := range prev.Predictor.anchors {
		if !dirty[f] {
			p.anchors[f] = a
		}
	}
	stats := IncrementalStats{}
	for f := range dirty {
		h, ok := hs.Get(f)
		if !ok {
			continue // vanished field: its stale entry was already dropped
		}
		stats.FieldsRecomputed++
		days := h.In(span)
		if len(days) < cfg.MinYears {
			continue
		}
		if anchors := extractAnchors(days, cfg); len(anchors) > 0 {
			p.anchors[f] = anchors
		}
	}
	return p, stats, nil
}

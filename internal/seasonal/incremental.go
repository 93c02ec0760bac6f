package seasonal

// Incremental retraining: anchors are strictly field-local — a field's
// anchors are a function of its own in-span change days and the config,
// nothing else — so a field whose in-span days are unchanged reproduces
// its previous anchors bit for bit, whether or not the span moved.
// TrainIncremental copies the previous anchor map and re-extracts only the
// fields changecube.DirtyUnits marks.

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
	// "cold" or "forced".
	Full       bool
	FullReason string
	// FieldsRecomputed counts the fields re-extracted, every field on a
	// full rebuild.
	FieldsRecomputed int
}

// TrainIncremental is Train with per-field anchor reuse. delta is what
// changed since prev, which must come from the same configuration;
// changecube.Cold with a zero prev is a cold build. A field is
// re-extracted when it changed or its in-span days moved with the span.
// The result is bit-identical to Train over the same inputs.
func TrainIncremental(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, delta changecube.Delta) (*Predictor, IncrementalStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, IncrementalStats{}, err
	}
	dirty := changecube.DirtyUnits(hs, delta, prev.Span, span, func(f changecube.FieldKey) changecube.FieldKey { return f })
	var prevAnchors map[changecube.FieldKey][]Anchor
	if dirty.Full == "" {
		prevAnchors = prev.Predictor.anchors
	}
	p := &Predictor{
		anchors:     make(map[changecube.FieldKey][]Anchor, len(prevAnchors)),
		tol:         cfg.ToleranceDays,
		minWindow:   cfg.MinWindowDays,
		maxDormancy: timeline.Day(cfg.MaxDormancyDays),
	}
	for f, a := range prevAnchors {
		if !dirty.Units[f] {
			p.anchors[f] = a
		}
	}
	recompute := hs.DirtyHistories(dirty)
	for _, h := range recompute {
		days := h.In(span)
		if len(days) < cfg.MinYears {
			continue
		}
		if anchors := extractAnchors(days, cfg); len(anchors) > 0 {
			p.anchors[h.Field] = anchors
		}
	}
	return p, IncrementalStats{Full: dirty.Full != "", FullReason: dirty.Full, FieldsRecomputed: len(recompute)}, nil
}

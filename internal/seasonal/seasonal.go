// Package seasonal implements the predictor the paper's §6 proposes as
// future work: capturing fields that change at the same time every year —
// league kick-offs, award ceremonies, annual reports — which the same-day
// correlation and weekly association rules cannot see when no related
// field changes alongside them.
//
// Training extracts per-field anchors: days-of-year around which the field
// changed in enough distinct years. A prediction fires when the window
// covers an anchor (within tolerance). Like the paper's predictors, the
// model is rule-shaped and self-explaining: the anchor is the explanation.
package seasonal

import (
	"fmt"
	"sort"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// yearDays approximates the calendar year. The generator's annual
// processes use the same arithmetic; on real data the ±tolerance absorbs
// leap-day drift over the horizon a detector is retrained at (the paper
// recommends retraining at least yearly).
const yearDays = 365

// Config tunes training.
type Config struct {
	// MinYears is the minimum number of distinct years in which the field
	// must have changed near an anchor.
	MinYears int
	// RecurrenceFraction is the minimum share of the field's observed
	// years that must hit the anchor. Between them, MinYears and this
	// fraction play the role of the other predictors' precision guards.
	RecurrenceFraction float64
	// ToleranceDays is the slack around an anchor, in days.
	ToleranceDays int
	// MinWindowDays disables predictions for windows shorter than this.
	// A yearly rhythm pins a change to within a few days, not to a day —
	// exactly the paper's argument that rarely-changing properties should
	// be predicted at weekly or monthly granularity.
	MinWindowDays int
	// MaxDormancyDays requires the field to have changed at least once
	// within this many days before the window; a page that fell out of
	// maintenance keeps its anchors but no longer follows them.
	MaxDormancyDays int
}

// Default returns a conservative configuration tuned, like the paper's
// predictors, for precision over recall: monthly-or-coarser windows only,
// and a liveness guard of about 1.5 years (the previous season must have
// happened).
func Default() Config {
	return Config{
		MinYears:           3,
		RecurrenceFraction: 0.7,
		ToleranceDays:      5,
		MinWindowDays:      30,
		MaxDormancyDays:    550,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinYears < 2 {
		return fmt.Errorf("seasonal: MinYears %d < 2 (one year is not a season)", c.MinYears)
	}
	if c.RecurrenceFraction <= 0 || c.RecurrenceFraction > 1 {
		return fmt.Errorf("seasonal: RecurrenceFraction %v out of (0,1]", c.RecurrenceFraction)
	}
	if c.ToleranceDays < 0 || c.ToleranceDays >= yearDays/4 {
		return fmt.Errorf("seasonal: ToleranceDays %d out of [0, %d)", c.ToleranceDays, yearDays/4)
	}
	if c.MinWindowDays < 1 {
		return fmt.Errorf("seasonal: MinWindowDays %d < 1", c.MinWindowDays)
	}
	if c.MaxDormancyDays < yearDays {
		return fmt.Errorf("seasonal: MaxDormancyDays %d < one year (the previous season could never qualify)", c.MaxDormancyDays)
	}
	return nil
}

// Anchor is one learned yearly recurrence.
type Anchor struct {
	// DayOfYear is the anchor position in [0, 365).
	DayOfYear int
	// Years is how many distinct years hit the anchor during training.
	Years int
}

// Predictor holds the learned per-field anchors.
type Predictor struct {
	anchors     map[changecube.FieldKey][]Anchor // sorted by DayOfYear
	tol         int
	minWindow   int
	maxDormancy timeline.Day
}

var _ predict.Predictor = (*Predictor)(nil)

// Train learns yearly anchors from the change days inside span: the cold
// build of TrainIncremental.
func Train(hs *changecube.HistorySet, span timeline.Span, cfg Config) (*Predictor, error) {
	p, _, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	return p, err
}

// extractAnchors clusters the field's change days by day-of-year and keeps
// clusters recurring in enough years.
func extractAnchors(days []timeline.Day, cfg Config) []Anchor {
	yearsObserved := int(days[len(days)-1]-days[0])/yearDays + 1
	need := cfg.MinYears
	if frac := int(cfg.RecurrenceFraction*float64(yearsObserved) + 0.999999); frac > need {
		need = frac
	}
	if yearsObserved < cfg.MinYears {
		return nil
	}

	type obs struct {
		doy  int
		year int
	}
	observations := make([]obs, len(days))
	for i, d := range days {
		doy := int(d) % yearDays
		if doy < 0 {
			doy += yearDays
		}
		observations[i] = obs{doy: doy, year: int(d) / yearDays}
	}
	sort.Slice(observations, func(i, j int) bool { return observations[i].doy < observations[j].doy })

	// Greedy clustering along day-of-year; the circle seam is handled by
	// checking whether the first and last clusters wrap into each other.
	var clusters [][]obs
	for _, o := range observations {
		if n := len(clusters); n > 0 {
			last := clusters[n-1]
			if o.doy-last[len(last)-1].doy <= cfg.ToleranceDays {
				clusters[n-1] = append(last, o)
				continue
			}
		}
		clusters = append(clusters, []obs{o})
	}
	if len(clusters) > 1 {
		first, last := clusters[0], clusters[len(clusters)-1]
		if first[0].doy+yearDays-last[len(last)-1].doy <= cfg.ToleranceDays {
			clusters[0] = append(last, first...)
			clusters = clusters[:len(clusters)-1]
		}
	}

	var anchors []Anchor
	for _, cluster := range clusters {
		years := map[int]bool{}
		for _, o := range cluster {
			years[o.year] = true
		}
		if len(years) < need {
			continue
		}
		anchors = append(anchors, Anchor{
			DayOfYear: cluster[len(cluster)/2].doy,
			Years:     len(years),
		})
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].DayOfYear < anchors[j].DayOfYear })
	return anchors
}

// Name implements predict.Predictor.
func (p *Predictor) Name() string { return "seasonal" }

// Covers reports whether the field has at least one anchor.
func (p *Predictor) Covers(f changecube.FieldKey) bool { return len(p.anchors[f]) > 0 }

// NumCovered returns the number of fields with anchors.
func (p *Predictor) NumCovered() int { return len(p.anchors) }

// Predict implements predict.Predictor: the field should have changed if
// the window covers one of its anchors, the window is coarse enough for a
// yearly rhythm to pin a change, and the field still followed its rhythm
// recently (it changed within MaxDormancyDays before the window).
func (p *Predictor) Predict(ctx predict.Context) bool {
	return p.Explain(ctx) != nil
}

// Explain returns the anchor justifying a positive prediction, or nil.
func (p *Predictor) Explain(ctx predict.Context) *Anchor {
	anchors := p.anchors[ctx.Target()]
	if len(anchors) == 0 {
		return nil
	}
	w := ctx.Window()
	if w.Size() < p.minWindow {
		return nil
	}
	days := ctx.TargetDays()
	if len(days) == 0 || days[len(days)-1] < w.Start-p.maxDormancy {
		return nil // the page fell out of maintenance
	}
	return p.match(anchors, w.Span)
}

// match returns the first anchor whose day-of-year falls inside the span.
func (p *Predictor) match(anchors []Anchor, span timeline.Span) *Anchor {
	if len(anchors) == 0 || span.Len() <= 0 {
		return nil
	}
	if span.Len() >= yearDays {
		return &anchors[0] // a yearly window always covers every anchor
	}
	lo := int(span.Start) % yearDays
	if lo < 0 {
		lo += yearDays
	}
	length := span.Len()
	for i := range anchors {
		d := anchors[i].DayOfYear - lo
		if d < 0 {
			d += yearDays
		}
		if d < length {
			return &anchors[i]
		}
	}
	return nil
}

// FieldAnchors pairs a field with its learned anchors, the serializable
// unit of the model.
type FieldAnchors struct {
	Field   changecube.FieldKey
	Anchors []Anchor
}

// Export returns the learned anchors in field order plus the prediction
// parameters, for model persistence.
func (p *Predictor) Export() (anchors []FieldAnchors, toleranceDays, minWindowDays, maxDormancyDays int) {
	for field, a := range p.anchors {
		anchors = append(anchors, FieldAnchors{Field: field, Anchors: a})
	}
	sort.Slice(anchors, func(i, j int) bool {
		a, b := anchors[i].Field, anchors[j].Field
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		return a.Property < b.Property
	})
	return anchors, p.tol, p.minWindow, int(p.maxDormancy)
}

// FromAnchors reconstructs a predictor from exported anchors — the
// deserialization path for model persistence.
func FromAnchors(anchors []FieldAnchors, toleranceDays, minWindowDays, maxDormancyDays int) *Predictor {
	p := &Predictor{
		anchors:     make(map[changecube.FieldKey][]Anchor, len(anchors)),
		tol:         toleranceDays,
		minWindow:   minWindowDays,
		maxDormancy: timeline.Day(maxDormancyDays),
	}
	for _, fa := range anchors {
		p.anchors[fa.Field] = append([]Anchor(nil), fa.Anchors...)
	}
	return p
}

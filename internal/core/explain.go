package core

import (
	"context"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs/trace"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// CorrelationEvidence is one fired field-correlation rule, resolved to
// names: the correlated partner changed in the window, and the learned
// distance cleared the training threshold θ.
type CorrelationEvidence struct {
	PartnerPage     string  `json:"partner_page"`
	PartnerProperty string  `json:"partner_property"`
	Distance        float64 `json:"distance"`
	Theta           float64 `json:"theta"`
}

// RuleEvidence is one fired association rule, resolved to names: within
// the template, the antecedent property changed in the window and the rule
// demands the consequent (the explained field) change too.
type RuleEvidence struct {
	Template   string  `json:"template"`
	Antecedent string  `json:"antecedent"`
	Consequent string  `json:"consequent"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	// ValidationPrecision is the rule's precision on the training holdout
	// (-1 when the holdout never fired it); ValidationFires how often it
	// fired there.
	ValidationPrecision float64 `json:"validation_precision"`
	ValidationFires     int     `json:"validation_fires"`
}

// Vote is one predictor's verdict on the explained (field, window).
type Vote struct {
	Predictor string `json:"predictor"`
	Fired     bool   `json:"fired"`
}

// Explanation is the full audit record for one (field, window) prediction:
// the evidence DetectStale would act on, plus every predictor's vote. The
// invariant the explain tests pin down: Stale is true exactly when
// DetectStale(asOf, window) would report the field.
type Explanation struct {
	// Field and Window identify the prediction; the serving layer resolves
	// them to names for the HTTP response.
	Field  changecube.FieldKey `json:"-"`
	Window timeline.Window     `json:"-"`
	// ChangedInWindow reports whether the field actually changed in the
	// window — in which case it is healthy regardless of the evidence.
	ChangedInWindow bool `json:"changed_in_window"`
	// Stale is the DetectStale verdict: evidence fired and no change came.
	Stale bool `json:"stale"`
	// Correlations and Rules are the fired evidence (empty when nothing
	// demands a change).
	Correlations []CorrelationEvidence `json:"correlations,omitempty"`
	Rules        []RuleEvidence        `json:"rules,omitempty"`
	// Votes lists every Table-1 predictor's verdict, including the
	// ensembles, in Predictors() order.
	Votes []Vote `json:"votes"`
	// Summary is the human-readable evidence line, identical to the
	// StaleAlert.Explanation DetectStale emits for this field when stale.
	Summary string `json:"summary,omitempty"`
}

// Explain audits one (field, window) prediction: which correlation and
// association rules fired, how every predictor voted, and whether the
// field counts as stale. The verdict mirrors DetectStale exactly — for any
// field DetectStale(asOf, windowSize) reports, Explain returns Stale=true
// with non-empty evidence, and for any field it does not, Stale=false.
func (d *Detector) Explain(field changecube.FieldKey, asOf timeline.Day, windowSize int) Explanation {
	w := staleWindow(asOf, windowSize)
	ex := Explanation{Field: field, Window: w}
	if windowSize <= 0 {
		return ex
	}
	if h, ok := d.histories.Get(field); ok {
		ex.ChangedInWindow = h.ChangedIn(w.Span)
	}

	ctx := predict.NewContext(d.histories, field, w)
	cube := d.histories.Cube()
	fired := d.fieldCorr.ExplainRules(ctx)
	for _, fr := range fired {
		ex.Correlations = append(ex.Correlations, CorrelationEvidence{
			PartnerPage:     cube.Pages.Name(int32(cube.Page(fr.Partner.Entity))),
			PartnerProperty: cube.Properties.Name(int32(fr.Partner.Property)),
			Distance:        fr.Distance,
			Theta:           d.cfg.Correlation.Theta,
		})
	}
	rules := d.assocRules.ExplainRules(ctx)
	for _, r := range rules {
		ex.Rules = append(ex.Rules, RuleEvidence{
			Template:            cube.Templates.Name(int32(r.Template)),
			Antecedent:          cube.Properties.Name(int32(r.Antecedent)),
			Consequent:          cube.Properties.Name(int32(r.Consequent)),
			Support:             r.Support,
			Confidence:          r.Confidence,
			ValidationPrecision: r.ValidationPrecision,
			ValidationFires:     r.Fires,
		})
	}
	for _, p := range d.Predictors() {
		ex.Votes = append(ex.Votes, Vote{Predictor: p.Name(), Fired: p.Predict(ctx)})
	}

	ex.Stale = !ex.ChangedInWindow && (len(ex.Correlations) > 0 || len(ex.Rules) > 0)
	if len(fired) > 0 {
		ex.Summary = d.explainCorrelation(fired[0].Partner.Property, len(fired))
	}
	if len(rules) > 0 {
		if ex.Summary != "" {
			ex.Summary += "; "
		}
		ex.Summary += d.explainRule(field, rules[0].Antecedent)
	}
	return ex
}

// Votes returns every Table-1 predictor's verdict on (field, window)
// without resolving evidence to names — the cheap subset of Explain the
// quality scorer uses to attribute each alert to the detector families
// whose votes fired for it. Identical to Explain's Votes list: same
// predictors, same order, same verdicts.
func (d *Detector) Votes(field changecube.FieldKey, asOf timeline.Day, windowSize int) []Vote {
	if windowSize <= 0 {
		return nil
	}
	w := timeline.Window{Span: timeline.NewSpan(asOf-timeline.Day(windowSize), asOf)}
	ctx := predict.NewContext(d.histories, field, w)
	votes := make([]Vote, 0, 6)
	for _, p := range d.Predictors() {
		votes = append(votes, Vote{Predictor: p.Name(), Fired: p.Predict(ctx)})
	}
	return votes
}

// ExplainCtx is Explain wrapped in a trace child span, so /v1/explain
// requests show the audit as one timed node of their trace.
func (d *Detector) ExplainCtx(ctx context.Context, field changecube.FieldKey, asOf timeline.Day, windowSize int) Explanation {
	_, span := trace.StartChild(ctx, "explain")
	span.SetAttr("asof", asOf.String())
	span.SetAttr("window_days", windowSize)
	ex := d.Explain(field, asOf, windowSize)
	span.SetAttr("stale", ex.Stale)
	span.End()
	return ex
}

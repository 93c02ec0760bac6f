// Package predict defines the prediction protocol shared by all change
// predictors: the question asked ("should field f have changed within
// window w?") and the leakage-controlled view of the data a predictor may
// consult while answering. Following the paper's §5.1, a predictor sees the
// target field's changes only up to the window start — simulating the one
// forgotten edit — while other fields are visible through the window end,
// because related fields were updated correctly.
package predict

import (
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Context is the leakage-controlled view for a single prediction.
type Context struct {
	observed *changecube.HistorySet
	window   timeline.Window
	target   changecube.FieldKey
}

// NewContext builds a prediction context over the observed data.
func NewContext(observed *changecube.HistorySet, target changecube.FieldKey, window timeline.Window) Context {
	return Context{observed: observed, window: window, target: target}
}

// Target returns the field under prediction.
func (c Context) Target() changecube.FieldKey { return c.target }

// Window returns the prediction window.
func (c Context) Window() timeline.Window { return c.window }

// Cube returns the schema metadata (templates, pages, dictionaries).
func (c Context) Cube() *changecube.Cube { return c.observed.Cube() }

// TargetDays returns the target field's change days strictly before the
// window start — the only view of the target a predictor may use.
func (c Context) TargetDays() []timeline.Day {
	h, ok := c.observed.Get(c.target)
	if !ok {
		return nil
	}
	return h.Before(c.window.Start)
}

// FieldChangedIn reports whether field changed inside span. The span is
// clamped to end no later than the window end; for the target field itself
// it is clamped to end before the window start, so a predictor can never
// observe the very change it is asked to predict.
func (c Context) FieldChangedIn(field changecube.FieldKey, span timeline.Span) bool {
	limit := c.window.End
	if field == c.target {
		limit = c.window.Start
	}
	if span.End > limit {
		span.End = limit
	}
	if span.End <= span.Start {
		return false
	}
	h, ok := c.observed.Get(field)
	if !ok {
		return false
	}
	return h.ChangedIn(span)
}

// Predictor answers the paper's prediction question for one field and
// window. Implementations are trained ahead of time; Predict must be safe
// for concurrent use.
type Predictor interface {
	// Name identifies the predictor in reports ("field correlations",
	// "association rules", ...).
	Name() string
	// Predict reports whether the target field should have changed within
	// the window.
	Predict(ctx Context) bool
}

// Func adapts a plain function to the Predictor interface, mainly for
// tests.
type Func struct {
	PredictorName string
	Fn            func(Context) bool
}

// Name implements Predictor.
func (f Func) Name() string { return f.PredictorName }

// Predict implements Predictor.
func (f Func) Predict(ctx Context) bool { return f.Fn(ctx) }

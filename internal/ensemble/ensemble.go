// Package ensemble combines change predictors by conjunction or
// disjunction (§3.4 of the paper). Because the member predictors are tuned
// to roughly the same precision target, the OR-ensemble boosts recall while
// keeping precision near the members', and the AND-ensemble boosts
// precision at the cost of recall.
package ensemble

import (
	"fmt"
	"strings"

	"github.com/wikistale/wikistale/internal/predict"
)

// Or predicts a change when any member predicts one.
type Or struct {
	Members []predict.Predictor
	// Label overrides the derived name when non-empty.
	Label string
}

var (
	_ predict.Predictor      = Or{}
	_ predict.BatchPredictor = Or{}
)

// Name implements predict.Predictor.
func (o Or) Name() string {
	if o.Label != "" {
		return o.Label
	}
	return "OR(" + memberNames(o.Members) + ")"
}

// Predict implements predict.Predictor.
func (o Or) Predict(ctx predict.Context) bool {
	for _, m := range o.Members {
		if m.Predict(ctx) {
			return true
		}
	}
	return false
}

// PredictWindows implements predict.BatchPredictor by combining member
// rows directly: members with a batch path contribute a whole row at once,
// members without one fall back to per-window scalar prediction.
func (o Or) PredictWindows(b predict.Batch, out []bool) {
	if len(o.Members) == 0 {
		for i := range out {
			out[i] = false
		}
		return
	}
	predict.MemberPredictWindows(o.Members[0], b, out)
	if len(o.Members) == 1 {
		return
	}
	buf := make([]bool, len(out))
	for _, m := range o.Members[1:] {
		predict.MemberPredictWindows(m, b, buf)
		for i, v := range buf {
			if v {
				out[i] = true
			}
		}
	}
}

// And predicts a change only when every member predicts one. An empty And
// never predicts (it has no evidence), unlike the vacuous-truth convention.
type And struct {
	Members []predict.Predictor
	Label   string
}

var (
	_ predict.Predictor      = And{}
	_ predict.BatchPredictor = And{}
)

// Name implements predict.Predictor.
func (a And) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return "AND(" + memberNames(a.Members) + ")"
}

// Predict implements predict.Predictor.
func (a And) Predict(ctx predict.Context) bool {
	if len(a.Members) == 0 {
		return false
	}
	for _, m := range a.Members {
		if !m.Predict(ctx) {
			return false
		}
	}
	return true
}

// PredictWindows implements predict.BatchPredictor; an empty And yields an
// all-false row, matching Predict's no-evidence convention.
func (a And) PredictWindows(b predict.Batch, out []bool) {
	if len(a.Members) == 0 {
		for i := range out {
			out[i] = false
		}
		return
	}
	predict.MemberPredictWindows(a.Members[0], b, out)
	if len(a.Members) == 1 {
		return
	}
	buf := make([]bool, len(out))
	for _, m := range a.Members[1:] {
		predict.MemberPredictWindows(m, b, buf)
		for i, v := range buf {
			if !v {
				out[i] = false
			}
		}
	}
}

func memberNames(ms []predict.Predictor) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	return strings.Join(names, ", ")
}

// Paper returns the two ensembles evaluated in the paper over the given
// field-correlation and association-rule predictors, labeled as in
// Table 1.
func Paper(fieldCorr, assocRules predict.Predictor) (and And, or Or) {
	members := []predict.Predictor{fieldCorr, assocRules}
	return And{Members: members, Label: "AND-ensemble"},
		Or{Members: members, Label: "OR-ensemble"}
}

// Validate checks that an ensemble has at least two members — anything
// less is a misconfiguration worth surfacing early.
func Validate(members []predict.Predictor) error {
	if len(members) < 2 {
		return fmt.Errorf("ensemble: need at least 2 members, got %d", len(members))
	}
	return nil
}

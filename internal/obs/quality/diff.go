package quality

import "sort"

// Epoch diffing: at swap time the serving layer renders the outgoing and
// incoming epochs' rule sets into RuleSets values (plain string keys —
// this package stays decoupled from the model types) and calls Diff. The
// result feeds wikistale_epoch_diff_* metrics, one structured log line
// per swap, and a bounded last-N ring behind GET /debug/epochdiff — so a
// retrain that silently guts the model (rules collapsing, the alert set
// churning wholesale) is visible before users notice.
//
// Determinism: Diff walks both maps key-by-key and sorts every sample
// list, so identical epoch pairs produce identical EpochDiff values
// regardless of map iteration order.

// diffSampleCap bounds each sample list kept in an EpochDiff — the
// counts are complete, the samples are a peek.
const diffSampleCap = 8

// DefaultShiftEps is the confidence-shift threshold: an association rule
// present in both epochs counts as shifted when its confidence moved by
// more than this.
const DefaultShiftEps = 0.05

// DefaultRingCap is the default /debug/epochdiff ring size.
const DefaultRingCap = 16

// RuleSets is one epoch's diffable surface, rendered by the caller:
// Corr maps a correlation-rule key to its distance, Assoc maps an
// association-rule key to its confidence, and Alerts holds the keys of
// the default-window alert set.
type RuleSets struct {
	Seq    uint64
	AsOf   string
	Corr   map[string]float64
	Assoc  map[string]float64
	Alerts map[string]struct{}
}

// Shift is one association rule whose confidence moved more than the
// epsilon between epochs.
type Shift struct {
	Rule string  `json:"rule"`
	From float64 `json:"from"`
	To   float64 `json:"to"`
}

// EpochDiff is the rendered difference between two consecutive epochs.
type EpochDiff struct {
	FromSeq uint64 `json:"from_seq"`
	ToSeq   uint64 `json:"to_seq"`
	// AsOf is the incoming epoch's data span end.
	AsOf string `json:"asof,omitempty"`

	CorrAdded    int `json:"corr_added"`
	CorrRemoved  int `json:"corr_removed"`
	AssocAdded   int `json:"assoc_added"`
	AssocRemoved int `json:"assoc_removed"`
	AssocShifted int `json:"assoc_shifted"`
	// AlertsEntered / AlertsLeft count fields entering/leaving the
	// default-window alert set.
	AlertsEntered int `json:"alerts_entered"`
	AlertsLeft    int `json:"alerts_left"`

	// Sorted, bounded samples of each change class.
	CorrAddedSample     []string `json:"corr_added_sample,omitempty"`
	CorrRemovedSample   []string `json:"corr_removed_sample,omitempty"`
	AssocAddedSample    []string `json:"assoc_added_sample,omitempty"`
	AssocRemovedSample  []string `json:"assoc_removed_sample,omitempty"`
	AssocShiftedSample  []Shift  `json:"assoc_shifted_sample,omitempty"`
	AlertsEnteredSample []string `json:"alerts_entered_sample,omitempty"`
	AlertsLeftSample    []string `json:"alerts_left_sample,omitempty"`
}

// Total is the number of individual changes the diff found across all
// classes — zero means the swap changed nothing diffable.
func (d EpochDiff) Total() int {
	return d.CorrAdded + d.CorrRemoved + d.AssocAdded + d.AssocRemoved +
		d.AssocShifted + d.AlertsEntered + d.AlertsLeft
}

// sortTrim sorts keys and truncates to the sample cap.
func sortTrim(keys []string) []string {
	sort.Strings(keys)
	if len(keys) > diffSampleCap {
		keys = keys[:diffSampleCap]
	}
	return keys
}

// diffKeys splits prev/next key sets into added and removed lists
// (complete counts are the lengths before trimming — so return counts
// separately).
func diffKeySets[V any](prev, next map[string]V) (added, removed []string) {
	for k := range next {
		if _, ok := prev[k]; !ok {
			added = append(added, k)
		}
	}
	for k := range prev {
		if _, ok := next[k]; !ok {
			removed = append(removed, k)
		}
	}
	return added, removed
}

// Diff renders the difference between two epochs' rule sets. shiftEps <= 0
// selects DefaultShiftEps.
func Diff(prev, next RuleSets, shiftEps float64) EpochDiff {
	if shiftEps <= 0 {
		shiftEps = DefaultShiftEps
	}
	d := EpochDiff{FromSeq: prev.Seq, ToSeq: next.Seq, AsOf: next.AsOf}

	corrAdded, corrRemoved := diffKeySets(prev.Corr, next.Corr)
	d.CorrAdded, d.CorrRemoved = len(corrAdded), len(corrRemoved)
	d.CorrAddedSample = sortTrim(corrAdded)
	d.CorrRemovedSample = sortTrim(corrRemoved)

	assocAdded, assocRemoved := diffKeySets(prev.Assoc, next.Assoc)
	d.AssocAdded, d.AssocRemoved = len(assocAdded), len(assocRemoved)
	d.AssocAddedSample = sortTrim(assocAdded)
	d.AssocRemovedSample = sortTrim(assocRemoved)

	var shifted []Shift
	for k, from := range prev.Assoc {
		if to, ok := next.Assoc[k]; ok {
			delta := to - from
			if delta < 0 {
				delta = -delta
			}
			if delta > shiftEps {
				shifted = append(shifted, Shift{Rule: k, From: from, To: to})
			}
		}
	}
	d.AssocShifted = len(shifted)
	sort.Slice(shifted, func(i, j int) bool { return shifted[i].Rule < shifted[j].Rule })
	if len(shifted) > diffSampleCap {
		shifted = shifted[:diffSampleCap]
	}
	d.AssocShiftedSample = shifted

	entered, left := diffKeySets(prev.Alerts, next.Alerts)
	d.AlertsEntered, d.AlertsLeft = len(entered), len(left)
	d.AlertsEnteredSample = sortTrim(entered)
	d.AlertsLeftSample = sortTrim(left)
	return d
}

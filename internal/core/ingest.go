package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Ingest folds a batch of freshly observed raw changes — today's parsed
// revisions — into the detector's observation data without retraining.
// The paper's deployment demands exactly this split: predictions must run
// for all of Wikipedia every day, while model retraining happens on a
// yearly cadence (§5.3.3 recommends retraining at least once per year;
// see Retrain).
//
// The batch passes through the same per-field noise stages as training
// data (bot-revert removal, day dedup, creation/deletion removal); the
// corpus-level five-change rule is an eligibility decision left to
// training. Changes must reference entities and properties registered in
// the detector's cube — register new infoboxes with the cube's AddEntity
// first; template-level rules apply to them immediately.
//
// Bot reverts are only detected within one batch; feed whole days (the
// natural unit after day-dedup) to keep that window intact.
func (d *Detector) Ingest(batch []changecube.Change) error {
	if len(batch) == 0 {
		return nil
	}
	cube := d.histories.Cube()
	byField := make(map[changecube.FieldKey][]changecube.Change)
	for i, ch := range batch {
		if int(ch.Entity) >= cube.NumEntities() || ch.Entity < 0 {
			return fmt.Errorf("core: ingest change %d references unknown entity %d", i, ch.Entity)
		}
		if int(ch.Property) >= cube.Properties.Len() || ch.Property < 0 {
			return fmt.Errorf("core: ingest change %d references unknown property %d", i, ch.Property)
		}
		key := changecube.FieldKey{Entity: ch.Entity, Property: ch.Property}
		byField[key] = append(byField[key], ch)
	}
	dayUpdates := make(map[changecube.FieldKey][]timeline.Day, len(byField))
	for key, chs := range byField {
		slices.SortStableFunc(chs, func(a, b changecube.Change) int { return cmp.Compare(a.Time, b.Time) })
		if days := filter.ApplyField(chs, d.cfg.Filter).Days; len(days) > 0 {
			dayUpdates[key] = days
		}
	}
	if len(dayUpdates) == 0 {
		return nil
	}
	hs, err := d.histories.MergeDays(dayUpdates)
	if err != nil {
		return fmt.Errorf("core: ingest: %w", err)
	}
	d.histories = hs
	d.evidence = compileEvidence(d.histories, d.fieldCorr, d.assocRules)
	return nil
}

// Retrain rebuilds every model from the detector's current (possibly
// ingested-into) histories, recomputing the time-axis splits from the new
// data end. It returns a fresh detector; the receiver stays valid.
func (d *Detector) Retrain() (*Detector, error) {
	return TrainFiltered(d.histories, d.filterStats, d.cfg)
}

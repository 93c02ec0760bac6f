package core

import (
	"encoding/json"
	"fmt"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/baseline"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/ensemble"
	"github.com/wikistale/wikistale/internal/familycorr"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/seasonal"
)

// modelVersion is bumped on any incompatible change to the model encoding.
const modelVersion = 1

// modelFile is the JSON shape of a trained model: every learned rule set,
// but no observation data — the histories live in the epoch snapshot's
// change cube and are supplied again at load time. The paper's 6-hour
// training run thus happens once; services restart from the epoch store.
type modelFile struct {
	Version int    `json:"version"`
	Splits  Splits `json:"splits"`

	CorrelationRules []correlation.Rule `json:"correlation_rules"`
	AssociationRules []assocrules.Rule  `json:"association_rules"`

	SeasonalAnchors     []seasonal.FieldAnchors `json:"seasonal_anchors"`
	SeasonalTolerance   int                     `json:"seasonal_tolerance_days"`
	SeasonalMinWindow   int                     `json:"seasonal_min_window_days"`
	SeasonalMaxDormancy int                     `json:"seasonal_max_dormancy_days"`

	FamilyRules []familycorr.Rule `json:"family_rules"`

	ThresholdSets []baseline.SizeFields `json:"threshold_sets"`
}

// exportModel assembles the serializable view of the trained model.
func (d *Detector) exportModel() modelFile {
	anchors, tol, minWin, maxDorm := d.seasonalP.Export()
	return modelFile{
		Version:             modelVersion,
		Splits:              d.splits,
		CorrelationRules:    d.fieldCorr.Rules(),
		AssociationRules:    d.assocRules.Rules(),
		SeasonalAnchors:     anchors,
		SeasonalTolerance:   tol,
		SeasonalMinWindow:   minWin,
		SeasonalMaxDormancy: maxDorm,
		FamilyRules:         d.familyCorr.Rules(),
		ThresholdSets:       d.threshBase.Export(),
	}
}

// MarshalModel returns the trained model as JSON — the epoch store's
// model payload. The encoding is deterministic for a given detector
// (encoding/json writes struct fields in declaration order), so identical
// detectors marshal to identical bytes.
func (d *Detector) MarshalModel() ([]byte, error) {
	return json.Marshal(d.exportModel())
}

// LoadModelBytes reconstructs a detector from a MarshalModel payload plus
// the filtered observation data the predictions run against. The data may
// be newer than the model (the daily-ingest scenario); the model's rules
// apply unchanged, as they do between the paper's yearly retrainings.
func LoadModelBytes(hs *changecube.HistorySet, stats filter.Stats, cfg Config, data []byte) (*Detector, error) {
	var m modelFile
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if m.Version != modelVersion {
		return nil, fmt.Errorf("core: model version %d, this build reads %d", m.Version, modelVersion)
	}
	if hs.Len() == 0 {
		return nil, fmt.Errorf("core: no observation data")
	}
	cube := hs.Cube()
	for _, rule := range m.CorrelationRules {
		for _, f := range []changecube.FieldKey{rule.A, rule.B} {
			if int(f.Entity) >= cube.NumEntities() || f.Entity < 0 {
				return nil, fmt.Errorf("core: model references unknown entity %d (stale model for this cube?)", f.Entity)
			}
		}
	}
	d := &Detector{
		cfg:         cfg,
		histories:   hs,
		splits:      m.Splits,
		filterStats: stats,
		fieldCorr:   correlation.FromRules(m.CorrelationRules),
		assocRules:  assocrules.FromRules(m.AssociationRules),
		seasonalP: seasonal.FromAnchors(m.SeasonalAnchors,
			m.SeasonalTolerance, m.SeasonalMinWindow, m.SeasonalMaxDormancy),
		familyCorr: familycorr.FromRules(m.FamilyRules),
		threshBase: baseline.ThresholdFromSets(m.ThresholdSets),
	}
	d.report.Filter = stats
	d.andEns, d.orEns = ensemble.Paper(d.fieldCorr, d.assocRules)
	d.extOrEns = ensemble.Or{
		Members: []predict.Predictor{d.fieldCorr, d.assocRules, d.seasonalP, d.familyCorr},
		Label:   "extended OR-ensemble",
	}
	d.evidence = compileEvidence(d.histories, d.fieldCorr, d.assocRules)
	return d, nil
}

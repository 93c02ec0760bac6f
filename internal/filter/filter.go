// Package filter implements the noise-removal pipeline of the paper's §4.
// Four stages are applied to every change history: (1) drop edits that were
// directly reverted by bots, (2) reduce the time dimension to day
// resolution, replacing each field-day's changes by one representative
// change (the mode of the day's values, most recent value on ties),
// (3) drop creations and deletions, and (4) drop fields with fewer than
// five remaining changes. The first three stages are one walk per field
// (ResumeField); the fourth is a corpus-level gate on its result. On the
// paper's corpus the funnel retains 9.2 % of the raw 283 M changes; the
// pipeline reports the same per-stage statistics for any input.
package filter

import (
	"fmt"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
)

// Config tunes the pipeline. The zero value is not valid; use Default.
type Config struct {
	// MinChanges is the minimum number of day-level changes a field must
	// retain to survive stage 4. The paper uses 5.
	MinChanges int
	// BotRevertHorizonDays is how many days after an edit a bot revert may
	// follow for the pair to be considered a direct revert.
	BotRevertHorizonDays int
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{MinChanges: 5, BotRevertHorizonDays: 2}
}

// Validate reports a configuration the pipeline cannot run with.
func (c Config) Validate() error {
	if c.MinChanges < 1 {
		return fmt.Errorf("filter: MinChanges must be >= 1, got %d", c.MinChanges)
	}
	if c.BotRevertHorizonDays < 0 {
		return fmt.Errorf("filter: negative BotRevertHorizonDays %d", c.BotRevertHorizonDays)
	}
	return nil
}

// StageStats records the change counts entering and leaving one stage.
type StageStats struct {
	Name string
	In   int
	Out  int
}

// Removed returns the fraction of incoming changes the stage removed.
func (s StageStats) Removed() float64 {
	if s.In == 0 {
		return 0
	}
	return float64(s.In-s.Out) / float64(s.In)
}

// Stats is the full funnel report.
type Stats struct {
	Stages []StageStats
}

// Survival returns the fraction of raw changes that survived the whole
// pipeline (the paper reports 9.2 %).
func (s Stats) Survival() float64 {
	if len(s.Stages) == 0 || s.Stages[0].In == 0 {
		return 0
	}
	return float64(s.Stages[len(s.Stages)-1].Out) / float64(s.Stages[0].In)
}

// String renders the funnel like the paper's §4 narrative.
func (s Stats) String() string {
	out := ""
	for _, st := range s.Stages {
		out += fmt.Sprintf("%-18s %9d -> %9d  (-%6.3f%%)\n", st.Name, st.In, st.Out, 100*st.Removed())
	}
	out += fmt.Sprintf("%-18s %6.2f%% of raw changes remain\n", "survival", 100*s.Survival())
	return out
}

// stages names the funnel's stages in order: the report name and the
// stage label of the wikistale_filter_stage_{in,out}_total counters.
var stages = [4]struct{ name, label string }{
	{"bot reverts", "filter/bot_reverts"},
	{"day dedup", "filter/day_dedup"},
	{"create/delete", "filter/create_delete"},
	{"min changes", "filter/min_changes"},
}

// Counts is the number of changes entering the funnel and surviving each
// of its stages, summed over fields.
type Counts struct {
	Raw, AfterBotReverts, AfterDayDedup, AfterCreateDelete, AfterMinChanges int
}

// Add folds one field's funnel into c with weight w: 1 adds the field,
// -1 takes an earlier funnel of it back out. The field counts at stage 4
// when its days clear minChanges.
func (c *Counts) Add(f FieldFunnel, minChanges, w int) {
	c.Raw += w * f.Raw
	c.AfterBotReverts += w * f.AfterBotReverts
	c.AfterDayDedup += w * f.AfterDayDedup
	c.AfterCreateDelete += w * len(f.Days)
	if len(f.Days) >= minChanges {
		c.AfterMinChanges += w * len(f.Days)
	}
}

// Stats is the funnel report of the counts.
func (c Counts) Stats() Stats {
	n := [...]int{c.Raw, c.AfterBotReverts, c.AfterDayDedup, c.AfterCreateDelete, c.AfterMinChanges}
	s := Stats{Stages: make([]StageStats, len(stages))}
	for i, st := range stages {
		s.Stages[i] = StageStats{Name: st.name, In: n[i], Out: n[i+1]}
	}
	return s
}

// CountsOf recovers the counts behind a funnel report built by
// Counts.Stats, such as one persisted with an epoch. ok is false when s
// is not shaped like one: other stages, or a stage whose input is not the
// output of the one before.
func CountsOf(s Stats) (c Counts, ok bool) {
	if len(s.Stages) != len(stages) {
		return Counts{}, false
	}
	n := [len(stages) + 1]int{s.Stages[0].In}
	for i, st := range s.Stages {
		if st.Name != stages[i].name || st.In != n[i] {
			return Counts{}, false
		}
		n[i+1] = st.Out
	}
	return Counts{n[0], n[1], n[2], n[3], n[4]}, true
}

// Apply runs the pipeline over cube, which it sorts, and returns the
// surviving day-level histories plus the funnel statistics: one
// ResumeField walk per field through the cube's packed log, then the
// MinChanges gate. The counts are also added to the default obs
// registry's wikistale_filter_stage_{in,out}_total counters.
func Apply(cube *changecube.Cube, cfg Config) (*changecube.HistorySet, Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	var n Counts
	var histories []changecube.History
	fields, groups := cube.FieldIndexes()
	for i, key := range fields {
		var f FieldFunnel
		ResumeField(&f, cube.FieldLog(groups[i]), 0, cfg)
		n.Add(f, cfg.MinChanges, 1)
		if len(f.Days) >= cfg.MinChanges {
			histories = append(histories, changecube.NewHistory(key, f.Days))
		}
	}
	stats := n.Stats()
	for i, st := range stats.Stages {
		labels := obs.Labels{"stage": stages[i].label}
		obs.Default.Counter("wikistale_filter_stage_in_total", labels).Add(uint64(st.In))
		obs.Default.Counter("wikistale_filter_stage_out_total", labels).Add(uint64(st.Out))
	}
	hs, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		return nil, stats, fmt.Errorf("filter: %w", err)
	}
	return hs, stats, nil
}

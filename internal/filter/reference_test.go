package filter

import (
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// applyReference is the §4 pipeline as four whole-corpus passes with one
// map per stage, each stage a separate function: the specification that
// Apply's fused per-field walk is checked against. Stage 2 keeps only
// each day's day and kind; the representative value (the mode of the
// day's values) is read by no later stage.
func applyReference(cube *changecube.Cube, cfg Config) (*changecube.HistorySet, Stats, error) {
	fields := make(map[changecube.FieldKey][]changecube.Change)
	for _, ch := range cube.Changes() {
		k := changecube.FieldKey{Entity: ch.Entity, Property: ch.Property}
		fields[k] = append(fields[k], ch)
	}
	total := cube.NumChanges()

	afterBots := 0
	botFiltered := make(map[changecube.FieldKey][]changecube.Change, len(fields))
	for k, chs := range fields {
		kept := dropBotReverts(chs, cfg.BotRevertHorizonDays)
		botFiltered[k] = kept
		afterBots += len(kept)
	}

	afterDedup := 0
	dayChanges := make(map[changecube.FieldKey][]dayRepresentative, len(fields))
	for k, chs := range botFiltered {
		dc := dayRepresentatives(chs)
		dayChanges[k] = dc
		afterDedup += len(dc)
	}

	afterCD := 0
	updatesOnly := make(map[changecube.FieldKey][]timeline.Day, len(fields))
	for k, dc := range dayChanges {
		var days []timeline.Day
		for _, d := range dc {
			if d.Kind == changecube.Update {
				days = append(days, d.Day)
			}
		}
		if len(days) > 0 {
			updatesOnly[k] = days
			afterCD += len(days)
		}
	}

	afterMin := 0
	var histories []changecube.History
	for k, days := range updatesOnly {
		if len(days) < cfg.MinChanges {
			continue
		}
		histories = append(histories, changecube.NewHistory(k, days))
		afterMin += len(days)
	}

	stats := Stats{Stages: []StageStats{
		{Name: "bot reverts", In: total, Out: afterBots},
		{Name: "day dedup", In: afterBots, Out: afterDedup},
		{Name: "create/delete", In: afterDedup, Out: afterCD},
		{Name: "min changes", In: afterCD, Out: afterMin},
	}}
	hs, err := changecube.NewHistorySet(cube, histories)
	return hs, stats, err
}

// dropBotReverts removes pairs (edit, bot revert) where a bot change
// restores the value preceding the edit within the horizon. chs must be the
// chronological change list of a single field.
func dropBotReverts(chs []changecube.Change, horizonDays int) []changecube.Change {
	if len(chs) < 3 {
		return chs
	}
	horizon := int64(horizonDays) * 24 * 60 * 60
	drop := make([]bool, len(chs))
	for i := 1; i+1 < len(chs); i++ {
		if drop[i] || drop[i+1] {
			continue
		}
		revert := chs[i+1]
		if !revert.Bot || revert.Kind != changecube.Update || chs[i].Kind != changecube.Update {
			continue
		}
		if revert.Value != chs[i-1].Value {
			continue
		}
		if revert.Time-chs[i].Time > horizon {
			continue
		}
		drop[i] = true
		drop[i+1] = true
	}
	kept := chs[:0:0]
	for i, ch := range chs {
		if !drop[i] {
			kept = append(kept, ch)
		}
	}
	return kept
}

// dayRepresentative is the day and kind of the single change a field-day
// is reduced to.
type dayRepresentative struct {
	Day  timeline.Day
	Kind changecube.ChangeKind
}

// dayRepresentatives reduces a field's chronological change list to one
// representative change per day. Its kind is Create if the day contains
// the field's first-ever change and it is a Create, Delete if the day's
// final change is a Delete, and Update otherwise.
func dayRepresentatives(chs []changecube.Change) []dayRepresentative {
	var out []dayRepresentative
	i := 0
	first := true
	for i < len(chs) {
		day := chs[i].Day()
		j := i
		for j < len(chs) && chs[j].Day() == day {
			j++
		}
		group := chs[i:j]
		kind := changecube.Update
		if group[len(group)-1].Kind == changecube.Delete {
			kind = changecube.Delete
		} else if first && group[0].Kind == changecube.Create {
			kind = changecube.Create
		}
		out = append(out, dayRepresentative{Day: day, Kind: kind})
		first = false
		i = j
	}
	return out
}

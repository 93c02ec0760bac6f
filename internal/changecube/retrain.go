package changecube

import (
	"slices"

	"github.com/wikistale/wikistale/internal/timeline"
)

// Delta is what changed since a model stage's previous training, the input
// of the stages' one retrain rule (DirtyUnits). Core derives it once per
// training and hands the same Delta to every stage.
type Delta struct {
	// Full, when not "", says why nothing may be reused: "cold" (no
	// previous training) or "forced" (the caller demands a full rebuild).
	// A stage adds a reason of its own with Rebuild.
	Full string
	// Changed lists the fields whose histories differ from the previous
	// training's, vanished fields included (HistorySet.ChangedSince).
	Changed map[FieldKey]bool
}

// Cold is the delta of a training with no previous one.
var Cold = Delta{Full: "cold"}

// Rebuild returns a delta that recomputes every unit for reason — a
// stage's fallback when its result stops being unit-local — unless d
// already is a full rebuild, whose reason takes precedence.
func (d Delta) Rebuild(reason string) Delta {
	if d.Full != "" {
		return d
	}
	return Delta{Full: reason}
}

// Dirty is the set of units (pages, templates, families or fields) a model
// stage recomputes on a retrain. Every other unit splices in its previous
// result unchanged.
type Dirty[U comparable] struct {
	// Full, when not "", is the delta's reason to recompute every unit;
	// Units is then nil.
	Full  string
	Units map[U]bool
}

// Has reports whether unit u must be recomputed.
func (d Dirty[U]) Has(u U) bool { return d.Full != "" || d.Units[u] }

// DirtyUnits is the retrain rule every model stage shares. A stage's
// result for one unit is a function of the in-window days of the fields
// the unit owns, so the unit is recomputed when it owns
//   - a field the delta lists (added, vanished, or with other days), or
//   - a field whose days inside prevWin, the window of the previous
//     training, differ from those inside win (History.SameIn); only a
//     moved window can cause this.
//
// unit maps a field to the unit that owns it. A full delta makes every
// unit dirty.
func DirtyUnits[U comparable](hs *HistorySet, d Delta, prevWin, win timeline.Span, unit func(FieldKey) U) Dirty[U] {
	if d.Full != "" {
		return Dirty[U]{Full: d.Full}
	}
	units := make(map[U]bool, len(d.Changed))
	for f := range d.Changed {
		units[unit(f)] = true
	}
	if prevWin != win {
		for _, h := range hs.histories {
			if u := unit(h.Field); !units[u] && !h.SameIn(prevWin, win) {
				units[u] = true
			}
		}
	}
	return Dirty[U]{Units: units}
}

// DirtyHistories returns the histories a field-keyed stage recomputes, in
// field order: every history on a full rebuild, else those of the dirty
// fields hs still holds. A vanished field has none; dropping its previous
// result is all it needs.
func (hs *HistorySet) DirtyHistories(d Dirty[FieldKey]) []History {
	if d.Full != "" {
		return hs.histories
	}
	idx := make([]int, 0, len(d.Units))
	for f := range d.Units {
		if i, ok := hs.index[f]; ok {
			idx = append(idx, i)
		}
	}
	slices.Sort(idx)
	out := make([]History, len(idx))
	for k, i := range idx {
		out[k] = hs.histories[i]
	}
	return out
}

package core

import (
	"slices"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
)

// evidenceIndex is the OR-ensemble's rule evidence compiled against one
// set of histories: for every field DetectStale can flag, the histories
// whose change in a window demands that the field change too. Rules and
// histories only change when a detector is built or ingests, so the map
// lookups are paid once there and a DetectStale call walks flat arrays.
// The index is read-only once built.
type evidenceIndex struct {
	// targets lists every field with evidence, in (entity, property)
	// order: fields with a history and history-less rule consequents.
	targets []evidenceTarget
	// partners and antes hold history indexes (into Histories()). Target
	// i owns partners[targets[i-1].partnersEnd:targets[i].partnersEnd] —
	// its correlation partners, in correlation.Predictor partner order —
	// and the antes range alike: its same-entity rule antecedents, in
	// assocrules antecedent order.
	partners []int32
	antes    []int32
	// historyless is HistorylessConsequents.
	historyless []changecube.FieldKey
}

// evidenceTarget is one field of the index.
type evidenceTarget struct {
	field changecube.FieldKey
	// history is the field's own history index, -1 for a history-less
	// consequent.
	history               int32
	partnersEnd, antesEnd int32
}

// compileEvidence builds the evidence index in one walk over the
// histories. Entries that can never fire are dropped: references to
// fields without a history, references to the target itself (a predictor
// never sees the target's in-window change, see
// predict.Context.FieldChangedIn), and targets left with no evidence.
func compileEvidence(hs *changecube.HistorySet, corr *correlation.Predictor, rules *assocrules.Predictor) evidenceIndex {
	consequents := make(map[changecube.TemplateID][]changecube.PropertyID)
	for _, r := range rules.Rules() {
		consequents[r.Template] = append(consequents[r.Template], r.Consequent)
	}
	for t, props := range consequents {
		slices.Sort(props)
		consequents[t] = slices.Compact(props) // two rules may share a consequent
	}

	var ev evidenceIndex
	cube := hs.Cube()
	histories := hs.Histories()
	add := func(field changecube.FieldKey, template changecube.TemplateID, history int32) {
		np, na := len(ev.partners), len(ev.antes)
		for _, p := range corr.Partners(field) {
			if i, ok := hs.Index(p); ok && p != field {
				ev.partners = append(ev.partners, int32(i))
			}
		}
		for _, ante := range rules.Antecedents(template, field.Property) {
			f := changecube.FieldKey{Entity: field.Entity, Property: ante}
			if i, ok := hs.Index(f); ok && f != field {
				ev.antes = append(ev.antes, int32(i))
			}
		}
		if len(ev.partners) > np || len(ev.antes) > na {
			ev.targets = append(ev.targets, evidenceTarget{
				field:       field,
				history:     history,
				partnersEnd: int32(len(ev.partners)),
				antesEnd:    int32(len(ev.antes)),
			})
		}
	}
	// Histories() is sorted by (entity, property): per entity, merge its
	// histories with its template's consequents, both in property order.
	for start := 0; start < len(histories); {
		entity := histories[start].Field.Entity
		end := start + 1
		for end < len(histories) && histories[end].Field.Entity == entity {
			end++
		}
		template := cube.Template(entity)
		cons := consequents[template]
		for i, j := start, 0; i < end || j < len(cons); {
			if j == len(cons) || (i < end && histories[i].Field.Property <= cons[j]) {
				if j < len(cons) && histories[i].Field.Property == cons[j] {
					j++ // a consequent with a history
				}
				add(histories[i].Field, template, int32(i))
				i++
				continue
			}
			field := changecube.FieldKey{Entity: entity, Property: cons[j]}
			ev.historyless = append(ev.historyless, field)
			add(field, template, -1)
			j++
		}
		start = end
	}
	return ev
}

package core

import (
	"math"
	"slices"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/timeline"
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

	// The day index holds every change day of every history a target
	// references (its own, its partners, its antecedents), grouped by
	// day. days lists the distinct days in ascending order; day k owns
	// dayHistories[dayEnds[k-1]:dayEnds[k]], the histories that changed
	// on it, in ascending order. Its size follows the referenced change
	// days, never the day range.
	days         []timeline.Day
	dayEnds      []int32
	dayHistories []int32
	// reverse lists, per history, the targets that name it as a partner
	// or an antecedent, in ascending target order: history h owns
	// reverse[reverseEnds[h-1]:reverseEnds[h]].
	reverseEnds []int32
	reverse     []int32
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
	ev.indexDays(histories)
	return ev
}

// indexDays builds the day index and the reverse lists from the targets.
func (ev *evidenceIndex) indexDays(histories []changecube.History) {
	// Reverse lists: count per history, turn the counts into start
	// offsets, then place the targets in ascending order; each cursor
	// ends at its history's end offset.
	referenced := make([]bool, len(histories))
	cursor := make([]int32, len(histories))
	ev.forEachReference(func(_ int32, h int32) { cursor[h]++ })
	var sum int32
	for h, n := range cursor {
		cursor[h] = sum
		sum += n
	}
	ev.reverse = make([]int32, sum)
	ev.forEachReference(func(t, h int32) {
		ev.reverse[cursor[h]] = t
		cursor[h]++
		referenced[h] = true
	})
	ev.reverseEnds = cursor

	// Day index: the (day, history) pairs of the referenced histories, in
	// history order, sorted by day with a stable radix sort on the offset
	// from the first day, so each day's histories stay ascending; then
	// cut into runs of one day.
	for _, t := range ev.targets {
		if t.history >= 0 {
			referenced[t.history] = true
		}
	}
	total, first := 0, timeline.Day(math.MaxInt32)
	for h, ok := range referenced {
		if ok {
			total += histories[h].Len()
			first = min(first, histories[h].Days()[0])
		}
	}
	offsets := make([]uint32, 0, total)
	ids := make([]int32, 0, total)
	for h, ok := range referenced {
		if ok {
			for _, d := range histories[h].Days() {
				offsets = append(offsets, uint32(d)-uint32(first)) // exact: two Days differ by less than 1<<32
				ids = append(ids, int32(h))
			}
		}
	}
	offsets, ids = radixSort(offsets, ids)
	ev.dayHistories = ids
	for i, off := range offsets {
		if i+1 == len(offsets) || off != offsets[i+1] {
			ev.days = append(ev.days, timeline.Day(uint32(first)+off))
			ev.dayEnds = append(ev.dayEnds, int32(i+1))
		}
	}
}

// radixSort sorts keys ascending, one byte per pass and stably, and
// permutes ids alike. It makes only as many passes as the largest key has
// bytes.
func radixSort(keys []uint32, ids []int32) ([]uint32, []int32) {
	var largest uint32
	for _, k := range keys {
		largest = max(largest, k)
	}
	keysTo := make([]uint32, len(keys))
	idsTo := make([]int32, len(ids))
	for shift := 0; shift < 32 && largest>>shift != 0; shift += 8 {
		var next [256]int
		for _, k := range keys {
			next[k>>shift&0xff]++
		}
		sum := 0
		for b, n := range next {
			next[b] = sum
			sum += n
		}
		for i, k := range keys {
			b := k >> shift & 0xff
			keysTo[next[b]], idsTo[next[b]] = k, ids[i]
			next[b]++
		}
		keys, keysTo = keysTo, keys
		ids, idsTo = idsTo, ids
	}
	return keys, ids
}

// forEachReference calls fn(target, history) for every partner and
// antecedent entry, targets in ascending order.
func (ev *evidenceIndex) forEachReference(fn func(t, h int32)) {
	for i := range ev.targets {
		partners, antes := ev.evidenceOf(int32(i))
		for _, h := range partners {
			fn(int32(i), h)
		}
		for _, h := range antes {
			fn(int32(i), h)
		}
	}
}

// evidenceOf returns target ti's partner and antecedent histories.
func (ev *evidenceIndex) evidenceOf(ti int32) (partners, antes []int32) {
	var partnersStart, antesStart int32
	if ti > 0 {
		partnersStart, antesStart = ev.targets[ti-1].partnersEnd, ev.targets[ti-1].antesEnd
	}
	t := ev.targets[ti]
	return ev.partners[partnersStart:t.partnersEnd], ev.antes[antesStart:t.antesEnd]
}

// changedIn returns the referenced histories with a change day inside
// span, once per such day.
func (ev *evidenceIndex) changedIn(span timeline.Span) []int32 {
	lo, _ := slices.BinarySearch(ev.days, span.Start)
	hi, _ := slices.BinarySearch(ev.days, span.End)
	if lo == hi {
		return nil
	}
	var from int32
	if lo > 0 {
		from = ev.dayEnds[lo-1]
	}
	return ev.dayHistories[from:ev.dayEnds[hi-1]]
}

// reverseOf returns the targets that name history h as a partner or an
// antecedent.
func (ev *evidenceIndex) reverseOf(h int32) []int32 {
	var from int32
	if h > 0 {
		from = ev.reverseEnds[h-1]
	}
	return ev.reverse[from:ev.reverseEnds[h]]
}

// bitset is a fixed-size set of indexes.
type bitset []uint64

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

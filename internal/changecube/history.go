package changecube

import (
	"fmt"
	"slices"
	"sort"

	"github.com/wikistale/wikistale/internal/timeline"
)

// History is a field's filtered change history at day resolution: the
// strictly increasing list of days on which the field's representative
// change happened. This is the only view of the data the change predictors
// consume — the paper's predictors disregard the value dimension entirely.
type History struct {
	Field FieldKey
	days  []timeline.Day
}

// NewHistory wraps a strictly increasing day slice (not copied).
func NewHistory(field FieldKey, days []timeline.Day) History {
	return History{Field: field, days: days}
}

// Days returns the change days. The slice is the history's storage and
// must not be modified.
func (h History) Days() []timeline.Day { return h.days }

// Len returns the number of change days.
func (h History) Len() int { return len(h.days) }

// First returns the earliest change day (ok is false for an empty history).
func (h History) First() (timeline.Day, bool) {
	if len(h.days) == 0 {
		return 0, false
	}
	return h.days[0], true
}

// Last returns the most recent change day (ok is false when empty).
func (h History) Last() (timeline.Day, bool) {
	if len(h.days) == 0 {
		return 0, false
	}
	return h.days[len(h.days)-1], true
}

// ChangedIn reports whether the field changed at least once inside span.
func (h History) ChangedIn(span timeline.Span) bool {
	lo := h.search(span.Start)
	return lo < len(h.days) && h.days[lo] < span.End
}

// Before returns the change days strictly before day, aliasing the
// history's storage.
func (h History) Before(day timeline.Day) []timeline.Day {
	return h.days[:h.search(day)]
}

// In returns the change days inside the half-open span, aliasing the
// history's storage.
func (h History) In(span timeline.Span) []timeline.Day {
	lo, hi := h.positions(span)
	return h.days[lo:hi]
}

// SameIn reports whether the field's change days inside span a equal those
// inside span b. Both windows are contiguous runs of one strictly
// increasing list, so they are equal iff both are empty or they start and
// end at the same positions; nothing is compared day by day.
func (h History) SameIn(a, b timeline.Span) bool {
	loA, hiA := h.positions(a)
	loB, hiB := h.positions(b)
	return (loA == hiA && loB == hiB) || (loA == loB && hiA == hiB)
}

// positions returns the index range [lo, hi) of the days inside span.
func (h History) positions(span timeline.Span) (lo, hi int) {
	lo, hi = h.search(span.Start), h.search(span.End)
	return lo, max(lo, hi)
}

// search returns the index of the first change day at or after day.
func (h History) search(day timeline.Day) int {
	return sort.Search(len(h.days), func(i int) bool { return h.days[i] >= day })
}

// sameDaysAs reports whether two histories hold the same days. Histories
// sharing one day slice compare equal without a scan.
func (h History) sameDaysAs(o History) bool {
	if len(h.days) != len(o.days) {
		return false
	}
	return len(h.days) == 0 || &h.days[0] == &o.days[0] || slices.Equal(h.days, o.days)
}

// Validate checks that the day list is strictly increasing.
func (h History) Validate() error {
	for i := 1; i < len(h.days); i++ {
		if h.days[i] <= h.days[i-1] {
			return fmt.Errorf("history %v: days not strictly increasing at %d (%v, %v)",
				h.Field, i, h.days[i-1], h.days[i])
		}
	}
	return nil
}

// HistorySet is the filtered dataset: one History per surviving field, plus
// the cube that supplies entity metadata (template, page). It is the input
// to training and evaluation.
type HistorySet struct {
	cube      *Cube
	histories []History
	index     map[FieldKey]int
}

// NewHistorySet builds a set over the given cube. Histories are sorted by
// field for determinism; each must be valid and non-empty, and fields must
// be unique.
func NewHistorySet(cube *Cube, histories []History) (*HistorySet, error) {
	hs := &HistorySet{
		cube:      cube,
		histories: histories,
		index:     make(map[FieldKey]int, len(histories)),
	}
	sort.Slice(hs.histories, func(i, j int) bool {
		return fieldLess(hs.histories[i].Field, hs.histories[j].Field)
	})
	for i, h := range hs.histories {
		if h.Len() == 0 {
			return nil, fmt.Errorf("changecube: empty history for field %v", h.Field)
		}
		if err := h.Validate(); err != nil {
			return nil, err
		}
		if _, dup := hs.index[h.Field]; dup {
			return nil, fmt.Errorf("changecube: duplicate history for field %v", h.Field)
		}
		if int(h.Field.Entity) >= cube.NumEntities() || h.Field.Entity < 0 {
			return nil, fmt.Errorf("changecube: history references unknown entity %d", h.Field.Entity)
		}
		hs.index[h.Field] = i
	}
	return hs, nil
}

// fieldLess orders fields by (entity, property), the order of a set's
// histories.
func fieldLess(a, b FieldKey) bool {
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	return a.Property < b.Property
}

// ChangedSince returns the fields whose history differs between prev and
// hs: fields only hs holds (added), fields only prev holds (vanished), and
// fields whose days differ. It is one merge walk over the two field-sorted
// history lists, and histories that share their day storage — every field
// a live snapshot did not touch — compare equal without a scan. Only the
// days are compared: entity metadata is taken to be the same for entities
// both sets know, as it is along one growing cube lineage.
func (hs *HistorySet) ChangedSince(prev *HistorySet) map[FieldKey]bool {
	changed := make(map[FieldKey]bool)
	a, b := prev.histories, hs.histories
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && fieldLess(a[i].Field, b[j].Field)):
			changed[a[i].Field] = true
			i++
		case i == len(a) || fieldLess(b[j].Field, a[i].Field):
			changed[b[j].Field] = true
			j++
		default:
			if !a[i].sameDaysAs(b[j]) {
				changed[b[j].Field] = true
			}
			i++
			j++
		}
	}
	return changed
}

// Cube returns the underlying cube (entity metadata and dictionaries).
func (hs *HistorySet) Cube() *Cube { return hs.cube }

// Histories returns all histories in field order; the slice is backing
// storage and must not be modified.
func (hs *HistorySet) Histories() []History { return hs.histories }

// Len returns the number of fields.
func (hs *HistorySet) Len() int { return len(hs.histories) }

// Get returns the history for field and whether it exists.
func (hs *HistorySet) Get(field FieldKey) (History, bool) {
	i, ok := hs.index[field]
	if !ok {
		return History{}, false
	}
	return hs.histories[i], true
}

// Index returns the position of field's history in Histories() and
// whether it exists.
func (hs *HistorySet) Index(field FieldKey) (int, bool) {
	i, ok := hs.index[field]
	return i, ok
}

// TotalChanges returns the total number of day-level changes across fields.
func (hs *HistorySet) TotalChanges() int {
	n := 0
	for _, h := range hs.histories {
		n += h.Len()
	}
	return n
}

// Span returns the day span covering all change days.
func (hs *HistorySet) Span() timeline.Span {
	if len(hs.histories) == 0 {
		return timeline.Span{}
	}
	first, _ := hs.histories[0].First()
	last := first
	for _, h := range hs.histories {
		if f, ok := h.First(); ok && f < first {
			first = f
		}
		if l, ok := h.Last(); ok && l > last {
			last = l
		}
	}
	return timeline.Span{Start: first, End: last + 1}
}

// ByPage groups history indices by the page of their entity, in field
// order within each page.
func (hs *HistorySet) ByPage() map[PageID][]int {
	out := make(map[PageID][]int)
	for i, h := range hs.histories {
		p := hs.cube.Page(h.Field.Entity)
		out[p] = append(out[p], i)
	}
	return out
}

// MergeDays returns a new set with additional change days folded in.
// Existing fields get the union of their days; unknown fields are added
// (their entities must exist in the cube). The receiver is unmodified.
func (hs *HistorySet) MergeDays(updates map[FieldKey][]timeline.Day) (*HistorySet, error) {
	histories := make([]History, 0, len(hs.histories)+len(updates))
	for _, h := range hs.histories {
		if extra, ok := updates[h.Field]; ok {
			histories = append(histories, NewHistory(h.Field, mergeSortedDays(h.Days(), extra)))
			continue
		}
		histories = append(histories, h)
	}
	for field, days := range updates {
		if _, ok := hs.index[field]; ok {
			continue
		}
		if len(days) == 0 {
			continue
		}
		histories = append(histories, NewHistory(field, mergeSortedDays(nil, days)))
	}
	return NewHistorySet(hs.cube, histories)
}

// mergeSortedDays unions two day lists into a fresh strictly-increasing
// slice. a must already be sorted; b is sorted defensively.
func mergeSortedDays(a, b []timeline.Day) []timeline.Day {
	bs := append([]timeline.Day(nil), b...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	out := make([]timeline.Day, 0, len(a)+len(bs))
	i, j := 0, 0
	push := func(d timeline.Day) {
		if len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	for i < len(a) && j < len(bs) {
		if a[i] <= bs[j] {
			push(a[i])
			i++
		} else {
			push(bs[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(bs); j++ {
		push(bs[j])
	}
	return out
}

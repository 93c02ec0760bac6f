package changecube

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/wikistale/wikistale/internal/timeline"
)

// History is a field's filtered change history at day resolution: the
// strictly increasing list of days on which the field's representative
// change happened. This is the only view of the data the change predictors
// consume — the paper's predictors disregard the value dimension entirely.
//
// A History holds its days in one of two representations: a plain
// []timeline.Day slice (the form incremental filtering produces), or a
// varint delta-packed byte string (first day as a signed varint, then
// strictly positive day gaps as unsigned varints — the epoch store's wire
// encoding, usable in place). The packed form costs ~1 byte per day
// instead of 4 plus a slice header per field, which is what lets a
// paper-scale corpus keep millions of field histories resident. Query
// methods are representation-transparent; Days() materializes a slice on
// demand from a packed history.
type History struct {
	Field FieldKey

	days []timeline.Day // slice form; nil when packed or empty

	packed      []byte // packed form; nil when slice form or empty
	count       int
	first, last timeline.Day // bounds of the packed form (count > 0)
}

// NewHistory wraps a strictly increasing day slice (not copied).
func NewHistory(field FieldKey, days []timeline.Day) History {
	return History{Field: field, days: days}
}

// NewHistoryPacked wraps a varint delta-packed day string of count days,
// validating it fully (strictly increasing, exactly count entries, no
// trailing bytes). The bytes are used in place, not copied.
func NewHistoryPacked(field FieldKey, packed []byte, count int) (History, error) {
	h, consumed, err := ScanPackedDays(field, packed, count)
	if err != nil {
		return History{}, err
	}
	if consumed != len(packed) {
		return History{}, fmt.Errorf("changecube: packed history %v: %d trailing bytes", field, len(packed)-consumed)
	}
	return h, nil
}

// ScanPackedDays reads exactly count packed days from the front of data,
// returning the History (referencing data in place) and the number of
// bytes consumed. Day gaps must be in [1, 1<<30] and days must not
// overflow — the same bounds the epoch store's snapshot decoder enforces,
// so corrupt on-disk payloads surface as errors, never panics.
func ScanPackedDays(field FieldKey, data []byte, count int) (History, int, error) {
	if count == 0 {
		return History{Field: field}, 0, nil
	}
	pos := 0
	var first, prev timeline.Day
	for i := 0; i < count; i++ {
		if i == 0 {
			v, n := binary.Varint(data[pos:])
			if n <= 0 {
				return History{}, 0, fmt.Errorf("changecube: packed history %v: truncated first day", field)
			}
			pos += n
			first = timeline.Day(v)
			if int64(first) != v {
				return History{}, 0, fmt.Errorf("changecube: packed history %v: first day %d out of range", field, v)
			}
			prev = first
			continue
		}
		gap, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return History{}, 0, fmt.Errorf("changecube: packed history %v: truncated day gap %d", field, i)
		}
		pos += n
		if gap == 0 || gap > 1<<30 {
			return History{}, 0, fmt.Errorf("changecube: packed history %v: day gap %d", field, gap)
		}
		day := prev + timeline.Day(gap)
		if day <= prev {
			return History{}, 0, fmt.Errorf("changecube: packed history %v: days overflow", field)
		}
		prev = day
	}
	return History{Field: field, packed: data[:pos], count: count, first: first, last: prev}, pos, nil
}

// AppendPackedDays appends the history's days in the packed wire encoding
// (first day signed varint, then unsigned varint gaps). The output is
// byte-identical whichever representation the history holds.
func (h History) AppendPackedDays(buf []byte) []byte {
	if h.packed != nil {
		return append(buf, h.packed...)
	}
	prev := timeline.Day(0)
	for i, day := range h.days {
		if i == 0 {
			buf = binary.AppendVarint(buf, int64(day))
		} else {
			buf = binary.AppendUvarint(buf, uint64(day-prev))
		}
		prev = day
	}
	return buf
}

// Packed returns the history in packed representation (a no-op when
// already packed). The day data is re-encoded into buf's free capacity;
// passing a shared buffer lets a whole HistorySet pack into one arena.
// The possibly-grown buffer is returned alongside.
func (h History) Packed(buf []byte) (History, []byte) {
	if h.packed != nil || len(h.days) == 0 {
		return h, buf
	}
	start := len(buf)
	buf = h.AppendPackedDays(buf)
	return History{
		Field:  h.Field,
		packed: buf[start:len(buf):len(buf)],
		count:  len(h.days),
		first:  h.days[0],
		last:   h.days[len(h.days)-1],
	}, buf
}

// IsPacked reports whether the history holds the packed representation.
func (h History) IsPacked() bool { return h.packed != nil }

// eachDay visits the days in increasing order; returning false stops.
func (h History) eachDay(fn func(timeline.Day) bool) {
	if h.packed == nil {
		for _, d := range h.days {
			if !fn(d) {
				return
			}
		}
		return
	}
	pos := 0
	v, n := binary.Varint(h.packed)
	pos += n
	day := timeline.Day(v)
	if !fn(day) {
		return
	}
	for i := 1; i < h.count; i++ {
		gap, n := binary.Uvarint(h.packed[pos:])
		pos += n
		day += timeline.Day(gap)
		if !fn(day) {
			return
		}
	}
}

// Days returns the change days as a slice. For a slice-form history this
// is the backing storage and must not be modified; for a packed history a
// fresh slice is decoded on every call.
func (h History) Days() []timeline.Day {
	if h.packed == nil {
		return h.days
	}
	out := make([]timeline.Day, 0, h.count)
	h.eachDay(func(d timeline.Day) bool {
		out = append(out, d)
		return true
	})
	return out
}

// Len returns the number of change days.
func (h History) Len() int {
	if h.packed == nil {
		return len(h.days)
	}
	return h.count
}

// First returns the earliest change day (ok is false for an empty history).
func (h History) First() (timeline.Day, bool) {
	if h.packed != nil {
		return h.first, true
	}
	if len(h.days) == 0 {
		return 0, false
	}
	return h.days[0], true
}

// Last returns the most recent change day (ok is false when empty).
func (h History) Last() (timeline.Day, bool) {
	if h.packed != nil {
		return h.last, true
	}
	if len(h.days) == 0 {
		return 0, false
	}
	return h.days[len(h.days)-1], true
}

// CountIn returns the number of change days inside the half-open span.
func (h History) CountIn(span timeline.Span) int {
	if h.packed == nil {
		lo := sort.Search(len(h.days), func(i int) bool { return h.days[i] >= span.Start })
		hi := sort.Search(len(h.days), func(i int) bool { return h.days[i] >= span.End })
		return hi - lo
	}
	if span.End <= h.first || span.Start > h.last {
		return 0
	}
	n := 0
	h.eachDay(func(d timeline.Day) bool {
		if d >= span.End {
			return false
		}
		if d >= span.Start {
			n++
		}
		return true
	})
	return n
}

// ChangedIn reports whether the field changed at least once inside span.
func (h History) ChangedIn(span timeline.Span) bool {
	if h.packed == nil {
		lo := sort.Search(len(h.days), func(i int) bool { return h.days[i] >= span.Start })
		return lo < len(h.days) && h.days[lo] < span.End
	}
	if span.End <= h.first || span.Start > h.last {
		return false
	}
	hit := false
	h.eachDay(func(d timeline.Day) bool {
		if d >= span.End {
			return false
		}
		if d >= span.Start {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// Before returns the change days strictly before day. For a slice-form
// history the result aliases the history's storage; for a packed one it is
// decoded fresh.
func (h History) Before(day timeline.Day) []timeline.Day {
	if h.packed == nil {
		hi := sort.Search(len(h.days), func(i int) bool { return h.days[i] >= day })
		return h.days[:hi]
	}
	var out []timeline.Day
	h.eachDay(func(d timeline.Day) bool {
		if d >= day {
			return false
		}
		out = append(out, d)
		return true
	})
	return out
}

// In returns the change days inside the half-open span. For a slice-form
// history the result aliases storage; for a packed one it is decoded fresh.
func (h History) In(span timeline.Span) []timeline.Day {
	if h.packed == nil {
		lo := sort.Search(len(h.days), func(i int) bool { return h.days[i] >= span.Start })
		hi := sort.Search(len(h.days), func(i int) bool { return h.days[i] >= span.End })
		return h.days[lo:hi]
	}
	if span.End <= h.first || span.Start > h.last {
		return nil
	}
	var out []timeline.Day
	h.eachDay(func(d timeline.Day) bool {
		if d >= span.End {
			return false
		}
		if d >= span.Start {
			out = append(out, d)
		}
		return true
	})
	return out
}

// SameIn reports whether the field's change days inside span a equal those
// inside span b. Both windows are contiguous runs of one strictly
// increasing list, so they are equal iff both are empty or they start and
// end at the same positions; nothing is decoded or compared day by day.
func (h History) SameIn(a, b timeline.Span) bool {
	loA, hiA := h.positions(a)
	loB, hiB := h.positions(b)
	return (loA == hiA && loB == hiB) || (loA == loB && hiA == hiB)
}

// positions returns the index range [lo, hi) of the days inside span.
func (h History) positions(span timeline.Span) (lo, hi int) {
	if h.packed == nil {
		lo = sort.Search(len(h.days), func(i int) bool { return h.days[i] >= span.Start })
		hi = sort.Search(len(h.days), func(i int) bool { return h.days[i] >= span.End })
		return lo, max(lo, hi)
	}
	h.eachDay(func(d timeline.Day) bool {
		if d >= span.End {
			return false
		}
		if d < span.Start {
			lo++
		}
		hi++
		return true
	})
	return lo, max(lo, hi)
}

// sameDaysAs reports whether two histories hold the same days, whatever
// their representations. Histories sharing one day slice or one packed
// run compare equal without a scan.
func (h History) sameDaysAs(o History) bool {
	if h.Len() != o.Len() {
		return false
	}
	if h.Len() == 0 {
		return true
	}
	switch {
	case h.packed == nil && o.packed == nil:
		return &h.days[0] == &o.days[0] || slices.Equal(h.days, o.days)
	case h.packed != nil && o.packed != nil:
		if &h.packed[0] == &o.packed[0] || bytes.Equal(h.packed, o.packed) {
			return true
		}
		// Differing bytes can still decode to equal days (a varint may be
		// written overlong), so fall through to a day-by-day walk.
	case h.packed != nil:
		h, o = o, h // walk the packed one against the slice
	}
	days := h.Days()
	i, same := 0, true
	o.eachDay(func(d timeline.Day) bool {
		same = d == days[i]
		i++
		return same
	})
	return same
}

// LastBefore returns the most recent change day strictly before day.
func (h History) LastBefore(day timeline.Day) (timeline.Day, bool) {
	if h.packed == nil {
		hi := sort.Search(len(h.days), func(i int) bool { return h.days[i] >= day })
		if hi == 0 {
			return 0, false
		}
		return h.days[hi-1], true
	}
	if day <= h.first {
		return 0, false
	}
	if day > h.last {
		return h.last, true
	}
	var best timeline.Day
	h.eachDay(func(d timeline.Day) bool {
		if d >= day {
			return false
		}
		best = d
		return true
	})
	return best, true
}

// Validate checks that the day list is strictly increasing.
func (h History) Validate() error {
	prev := timeline.Day(0)
	idx := 0
	var err error
	h.eachDay(func(d timeline.Day) bool {
		if idx > 0 && d <= prev {
			err = fmt.Errorf("history %v: days not strictly increasing at %d (%v, %v)",
				h.Field, idx, prev, d)
			return false
		}
		prev = d
		idx++
		return true
	})
	return err
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

// Pack returns a new set holding every history in packed representation,
// with all day data re-encoded into one shared arena. The cube is shared.
func (hs *HistorySet) Pack() *HistorySet {
	out := &HistorySet{
		cube:      hs.cube,
		histories: make([]History, len(hs.histories)),
		index:     make(map[FieldKey]int, len(hs.index)),
	}
	var arena []byte
	for _, h := range hs.histories {
		arena = h.AppendPackedDays(arena)
	}
	// Encode twice: the first pass sizes the arena so the second never
	// reallocates (subslices must stay aliased into one block).
	buf := make([]byte, 0, len(arena))
	for i, h := range hs.histories {
		out.histories[i], buf = h.Packed(buf)
		out.index[h.Field] = i
	}
	return out
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

// ByEntity groups history indices by entity.
func (hs *HistorySet) ByEntity() map[EntityID][]int {
	out := make(map[EntityID][]int)
	for i, h := range hs.histories {
		out[h.Field.Entity] = append(out[h.Field.Entity], i)
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

// Restrict returns a new set containing, for every field, only the change
// days inside span — keeping fields with at least minChanges such days.
// This implements the paper's per-split eligibility rule ("all fields that
// have at least five changes within their timeframe").
func (hs *HistorySet) Restrict(span timeline.Span, minChanges int) *HistorySet {
	var kept []History
	for _, h := range hs.histories {
		days := h.In(span)
		if len(days) >= minChanges && len(days) > 0 {
			kept = append(kept, NewHistory(h.Field, days))
		}
	}
	out, err := NewHistorySet(hs.cube, kept)
	if err != nil {
		// Restricting a valid set cannot produce an invalid one.
		panic(fmt.Sprintf("changecube: Restrict produced invalid set: %v", err))
	}
	return out
}

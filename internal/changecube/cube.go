// Package changecube implements the change-cube data model of Bleifuß et
// al. (PVLDB 2018) as used by the stale-data detection paper: every change
// to a Wikipedia infobox is a tuple of time, entity (infobox), property and
// newly assigned value. Entities carry two pieces of schema metadata — the
// infobox template they instantiate and the page they appear on — which the
// two predictors use to scope their search for related fields.
package changecube

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/wikistale/wikistale/internal/timeline"
)

// EntityID identifies an infobox. Each entity belongs to exactly one
// template and one page.
type EntityID int32

// PropertyID identifies an interned property (attribute) name.
type PropertyID int32

// TemplateID identifies an interned infobox template name.
type TemplateID int32

// PageID identifies an interned page title.
type PageID int32

// ChangeKind distinguishes the three change classes of the paper's §4:
// value updates, property/infobox creations and deletions. Only updates
// survive the filter pipeline.
type ChangeKind uint8

const (
	// Update assigns a new value to an existing property.
	Update ChangeKind = iota
	// Create adds a property (or a whole infobox, one Create per property).
	Create
	// Delete removes a property (or a whole infobox).
	Delete
)

// String returns the lower-case kind name.
func (k ChangeKind) String() string {
	switch k {
	case Update:
		return "update"
	case Create:
		return "create"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("ChangeKind(%d)", uint8(k))
	}
}

// MarshalText renders the kind as its lower-case name, making ChangeKind
// usable directly in JSON event feeds (see internal/ingest).
func (k ChangeKind) MarshalText() ([]byte, error) {
	if k > Delete {
		return nil, fmt.Errorf("changecube: invalid change kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses a lower-case kind name.
func (k *ChangeKind) UnmarshalText(text []byte) error {
	parsed, err := ParseChangeKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseChangeKind maps a lower-case kind name back to its ChangeKind.
func ParseChangeKind(s string) (ChangeKind, error) {
	switch s {
	case "update":
		return Update, nil
	case "create":
		return Create, nil
	case "delete":
		return Delete, nil
	default:
		return 0, fmt.Errorf("changecube: unknown change kind %q", s)
	}
}

// Change is one tuple of the change cube.
type Change struct {
	// Time is the Unix timestamp (seconds, UTC) of the revision that
	// introduced the change.
	Time int64
	// Entity is the infobox the change belongs to.
	Entity EntityID
	// Property is the changed attribute.
	Property PropertyID
	// Value is the newly assigned value (empty for Delete).
	Value string
	// Kind classifies the change.
	Kind ChangeKind
	// Bot marks changes performed by known Wikipedia bots; the filter
	// pipeline uses it to drop bot-reverted edit pairs.
	Bot bool
}

// Day returns the calendar day of the change.
func (c Change) Day() timeline.Day { return timeline.DayOfUnix(c.Time) }

// FieldKey identifies a field: the combination of entity and property, the
// unit at which staleness predictions are made.
type FieldKey struct {
	Entity   EntityID
	Property PropertyID
}

// EntityInfo is the per-entity schema metadata of the cube.
type EntityInfo struct {
	Template TemplateID
	Page     PageID
}

// Cube is an in-memory change cube: dictionaries for the three string
// dimensions, per-entity metadata, and the change list itself. Changes are
// held in packed column storage (see log.go); Changes materializes the
// classic []Change view on demand, while ChangeAt/EachChange read the
// packed form directly.
type Cube struct {
	Properties *Dict
	Templates  *Dict
	Pages      *Dict

	entities []EntityInfo
	log      changeLog
	sorted   bool
	last     Change // newest appended change, for sortedness tracking
}

// New returns an empty cube.
func New() *Cube {
	return &Cube{
		Properties: NewDict(),
		Templates:  NewDict(),
		Pages:      NewDict(),
		log:        newChangeLog(),
		sorted:     true,
	}
}

// AddEntity registers a new infobox on the given page instantiating the
// given template and returns its id.
func (c *Cube) AddEntity(template TemplateID, page PageID) EntityID {
	if int(template) >= c.Templates.Len() || template < 0 {
		panic(fmt.Sprintf("changecube: unknown template %d", template))
	}
	if int(page) >= c.Pages.Len() || page < 0 {
		panic(fmt.Sprintf("changecube: unknown page %d", page))
	}
	id := EntityID(len(c.entities))
	c.entities = append(c.entities, EntityInfo{Template: template, Page: page})
	return id
}

// AddEntityNamed is AddEntity with string template and page names, interning
// them as needed.
func (c *Cube) AddEntityNamed(template, page string) EntityID {
	t := TemplateID(c.Templates.Intern(template))
	p := PageID(c.Pages.Intern(page))
	return c.AddEntity(t, p)
}

// NumEntities returns the number of registered infoboxes.
func (c *Cube) NumEntities() int { return len(c.entities) }

// Entity returns the metadata of entity e.
func (c *Cube) Entity(e EntityID) EntityInfo {
	return c.entities[e]
}

// Template returns the template of entity e.
func (c *Cube) Template(e EntityID) TemplateID { return c.entities[e].Template }

// Page returns the page of entity e.
func (c *Cube) Page(e EntityID) PageID { return c.entities[e].Page }

// Add appends a change. Changes may be added in any order; Sort (or any
// accessor that needs order) arranges them chronologically. The change's
// index in append order is NumChanges() before the call — stable for as
// long as the cube is not sorted, which is what the live-ingestion staging
// buffer keys its per-field indexes on.
func (c *Cube) Add(ch Change) {
	if int(ch.Entity) >= len(c.entities) || ch.Entity < 0 {
		panic(fmt.Sprintf("changecube: change references unknown entity %d", ch.Entity))
	}
	if int(ch.Property) >= c.Properties.Len() || ch.Property < 0 {
		panic(fmt.Sprintf("changecube: change references unknown property %d", ch.Property))
	}
	if c.log.len() > 0 && c.sorted {
		prev := c.last
		if Less(ch, prev) {
			c.sorted = false
		}
	}
	idx := c.log.add(ch)
	// Re-read the value through the arena so the retained copy does not pin
	// the caller's (possibly much larger) backing allocation.
	c.last = c.log.at(idx)
}

// lessAt is the tie-break order for changes with equal timestamps: by
// entity, then property, so that per-field subsequences are contiguous
// within a timestamp.
func lessAt(a, b Change) bool {
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	return a.Property < b.Property
}

// Less is the canonical change order: by time, then entity, then property.
func Less(a, b Change) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return lessAt(a, b)
}

// Sort arranges the changes in canonical order, changes that tie on
// (time, entity, property) in append order. It is a no-op when the cube
// is already sorted. Sorting rebuilds the packed storage in a fresh log,
// so logs sharing chunks with this one through earlier clones are
// unaffected, and any append-order indexes captured before the call are
// invalidated.
func (c *Cube) Sort() {
	if c.sorted {
		return
	}
	sorted := newChangeLog()
	for _, i := range c.canonicalOrder() {
		sorted.add(c.log.at(int(i)))
	}
	c.log = sorted
	c.sorted = true
	if n := c.log.len(); n > 0 {
		c.last = c.log.at(n - 1)
	}
}

// canonicalOrder returns the log indexes in canonical order, changes that
// tie on (time, entity, property) by index, which is append order until
// the cube is sorted. It sorts a permutation by reading the packed
// columns, so the log itself is neither copied nor reordered.
func (c *Cube) canonicalOrder() []uint32 {
	perm := make([]uint32, c.log.len())
	for i := range perm {
		perm[i] = uint32(i)
	}
	chunks := c.log.chunks
	slices.SortFunc(perm, func(a, b uint32) int {
		ca, ia := chunks[a>>logChunkShift], a&logChunkMask
		cb, ib := chunks[b>>logChunkShift], b&logChunkMask
		if ta, tb := ca.times[ia], cb.times[ib]; ta != tb {
			return cmp.Compare(ta, tb)
		}
		if ea, eb := ca.ents[ia], cb.ents[ib]; ea != eb {
			return cmp.Compare(ea, eb)
		}
		if pa, pb := ca.props[ia], cb.props[ib]; pa != pb {
			return cmp.Compare(pa, pb)
		}
		return cmp.Compare(a, b)
	})
	return perm
}

// materialize copies the packed log into a fresh []Change. Value strings
// alias the arena (zero-copy).
func (c *Cube) materialize() []Change {
	out := make([]Change, c.log.len())
	for i := range out {
		out[i] = c.log.at(i)
	}
	return out
}

// Changes returns the change list in canonical order. The slice is
// materialized fresh from the packed storage on every call — prefer
// EachChange or ChangeAt on large cubes.
func (c *Cube) Changes() []Change {
	c.Sort()
	return c.materialize()
}

// ChangeAt returns the change at index i in the cube's current storage
// order (append order until Sort, canonical order after). The value string
// aliases the cube's arena.
func (c *Cube) ChangeAt(i int) Change { return c.log.at(i) }

// TimeAt returns the timestamp of the change at index i without
// materializing it.
func (c *Cube) TimeAt(i int) int64 { return c.log.timeAt(i) }

// EachChange visits every change in the cube's current storage order
// without materializing the list; returning false from fn stops the
// iteration. Call Sort first when canonical order is required.
func (c *Cube) EachChange(fn func(i int, ch Change) bool) {
	c.log.each(0, c.log.len(), fn)
}

// NumChanges returns the number of changes.
func (c *Cube) NumChanges() int { return c.log.len() }

// Span returns the half-open day span covering all changes. An empty cube
// yields an empty span at day 0. Span never sorts: it scans the packed
// time column, so it is safe on a live staging cube whose append-order
// indexes must stay stable.
func (c *Cube) Span() timeline.Span {
	if c.log.len() == 0 {
		return timeline.Span{}
	}
	minT, maxT := c.log.timeAt(0), c.log.timeAt(0)
	for _, chunk := range c.log.chunks {
		for _, t := range chunk.times {
			if t < minT {
				minT = t
			}
			if t > maxT {
				maxT = t
			}
		}
	}
	return timeline.Span{Start: timeline.DayOfUnix(minT), End: timeline.DayOfUnix(maxT) + 1}
}

// FieldIndexes sorts the cube and groups its log indexes by field:
// fields lists every field in (entity, property) order, and groups[i] is
// the log indexes of fields[i] in chronological order. Two stable
// counting sorts over the packed property and entity columns order all
// indexes by (entity, property, index) in one flat array, so each group is
// a run of it, capped at its length so an append to one group copies
// instead of writing into the next. The indexes stay valid until the cube
// is sorted again, which only does anything after an append out of
// canonical order. Read a group through FieldLog.
func (c *Cube) FieldIndexes() (fields []FieldKey, groups [][]uint32) {
	c.Sort()
	n := c.log.len()
	byProp := make([]uint32, n)
	next := make([]uint32, c.Properties.Len()+1)
	for _, chunk := range c.log.chunks {
		for _, p := range chunk.props {
			next[p+1]++
		}
	}
	for p := 1; p < len(next); p++ {
		next[p] += next[p-1]
	}
	i := uint32(0)
	for _, chunk := range c.log.chunks {
		for _, p := range chunk.props {
			byProp[next[p]] = i
			next[p]++
			i++
		}
	}
	// next[p] now ends property p's run of byProp.
	propEnds := next[:c.Properties.Len()]

	flat := make([]uint32, n)
	props := make([]PropertyID, n) // property of flat[j]
	next = make([]uint32, len(c.entities)+1)
	for _, chunk := range c.log.chunks {
		for _, e := range chunk.ents {
			next[e+1]++
		}
	}
	for e := 1; e < len(next); e++ {
		next[e] += next[e-1]
	}
	lo := uint32(0)
	for p, hi := range propEnds {
		for _, i := range byProp[lo:hi] {
			e := c.log.field(int(i)).Entity
			flat[next[e]], props[next[e]] = i, PropertyID(p)
			next[e]++
		}
		lo = hi
	}

	// next[e] now ends entity e's run of flat; within it, a field's run
	// ends where the property changes. The first walk counts the fields,
	// so the second fills slices of their final size.
	ends := next[:len(c.entities)]
	count := 0
	eachRun(ends, props, func(EntityID, uint32, uint32) { count++ })
	fields = make([]FieldKey, 0, count)
	groups = make([][]uint32, 0, count)
	eachRun(ends, props, func(e EntityID, lo, hi uint32) {
		fields = append(fields, FieldKey{Entity: e, Property: props[lo]})
		groups = append(groups, flat[lo:hi:hi])
	})
	return fields, groups
}

// eachRun calls fn with the bounds of every run of equal props inside
// each entity's range, which ends[e] ends.
func eachRun(ends []uint32, props []PropertyID, fn func(e EntityID, lo, hi uint32)) {
	lo := uint32(0)
	for e, end := range ends {
		for j := lo; j < end; j++ {
			if j+1 == end || props[j+1] != props[j] {
				fn(EntityID(e), lo, j+1)
				lo = j + 1
			}
		}
	}
}

// FieldLog is one field's chronological change list read through a
// cube's packed log: 4 bytes per change instead of a materialized Change.
type FieldLog struct {
	cube *Cube
	idx  []uint32
}

// FieldLog returns the view of the changes at log indexes idx, which
// must be one field's changes in chronological order (a FieldIndexes
// group, or one kept in that order since).
func (c *Cube) FieldLog(idx []uint32) FieldLog { return FieldLog{c, idx} }

// Len returns the number of changes in the view.
func (l FieldLog) Len() int { return len(l.idx) }

// At returns the view's i-th change; its value aliases the cube's arena.
func (l FieldLog) At(i int) Change { return l.cube.ChangeAt(int(l.idx[i])) }

// Clone returns a deep logical copy of the cube: dictionaries and entity
// metadata are freshly allocated, and the change log is copied
// copy-on-write — sealed storage chunks are immutable and shared, only the
// open tail is duplicated. The copy can be read (and even mutated)
// independently of the original. Live ingestion uses this to hand a frozen
// snapshot to a background retrain while appends continue on the original;
// the chunk sharing is what keeps that snapshot O(1) in corpus size.
func (c *Cube) Clone() *Cube {
	return &Cube{
		Properties: c.Properties.Clone(),
		Templates:  c.Templates.Clone(),
		Pages:      c.Pages.Clone(),
		entities:   append([]EntityInfo(nil), c.entities...),
		log:        c.log.clone(),
		sorted:     c.sorted,
		last:       c.last,
	}
}

// Validate checks internal consistency: all referenced entities and
// properties exist and, if the cube claims to be sorted, the change order is
// canonical. It returns the first violation found.
func (c *Cube) Validate() error {
	var err error
	prev := Change{}
	c.EachChange(func(i int, ch Change) bool {
		if int(ch.Entity) >= len(c.entities) || ch.Entity < 0 {
			err = fmt.Errorf("change %d: unknown entity %d", i, ch.Entity)
			return false
		}
		if int(ch.Property) >= c.Properties.Len() || ch.Property < 0 {
			err = fmt.Errorf("change %d: unknown property %d", i, ch.Property)
			return false
		}
		if ch.Kind > Delete {
			err = fmt.Errorf("change %d: invalid kind %d", i, ch.Kind)
			return false
		}
		if c.sorted && i > 0 && Less(ch, prev) {
			err = fmt.Errorf("changes %d and %d out of canonical order", i-1, i)
			return false
		}
		prev = ch
		return true
	})
	if err != nil {
		return err
	}
	for i, info := range c.entities {
		if int(info.Template) >= c.Templates.Len() || info.Template < 0 {
			return fmt.Errorf("entity %d: unknown template %d", i, info.Template)
		}
		if int(info.Page) >= c.Pages.Len() || info.Page < 0 {
			return fmt.Errorf("entity %d: unknown page %d", i, info.Page)
		}
	}
	return nil
}

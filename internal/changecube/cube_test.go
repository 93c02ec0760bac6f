package changecube

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"github.com/wikistale/wikistale/internal/timeline"
)

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("population")
	b := d.Intern("area")
	a2 := d.Intern("population")
	if a != a2 {
		t.Fatalf("re-interning returned %d, want %d", a2, a)
	}
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Name(a) != "population" || d.Name(b) != "area" {
		t.Fatal("Name does not round-trip")
	}
	if id, ok := d.Lookup("area"); !ok || id != b {
		t.Fatal("Lookup failed for known name")
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("Lookup succeeded for unknown name")
	}
}

func TestDictNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Name(99) did not panic")
		}
	}()
	NewDict().Name(99)
}

// buildTestCube returns a small cube with two pages, two templates, three
// entities and a handful of changes out of chronological order.
func buildTestCube() (*Cube, []EntityID) {
	c := New()
	e1 := c.AddEntityNamed("infobox settlement", "London")
	e2 := c.AddEntityNamed("infobox settlement", "Paris")
	e3 := c.AddEntityNamed("infobox boxer", "London") // second infobox on the London page
	pop := PropertyID(c.Properties.Intern("population"))
	wins := PropertyID(c.Properties.Intern("wins"))
	c.Add(Change{Time: 2000, Entity: e1, Property: pop, Value: "9m", Kind: Update})
	c.Add(Change{Time: 1000, Entity: e2, Property: pop, Value: "2m", Kind: Update})
	c.Add(Change{Time: 1500, Entity: e3, Property: wins, Value: "10", Kind: Update})
	c.Add(Change{Time: 1000, Entity: e1, Property: pop, Value: "8m", Kind: Create})
	return c, []EntityID{e1, e2, e3}
}

func TestCubeSortAndValidate(t *testing.T) {
	c, _ := buildTestCube()
	chs := c.Changes()
	for i := 1; i < len(chs); i++ {
		if Less(chs[i], chs[i-1]) {
			t.Fatalf("changes not in canonical order at %d", i)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCubeSortStableTieBreak(t *testing.T) {
	c, es := buildTestCube()
	chs := c.Changes()
	// Two changes share Time=1000: entity e1 (Create) and e2. Canonical
	// order puts the lower entity id first.
	if chs[0].Entity != es[0] || chs[0].Kind != Create {
		t.Fatalf("first change = %+v, want e1 create at t=1000", chs[0])
	}
	if chs[1].Entity != es[1] {
		t.Fatalf("second change entity = %d, want %d", chs[1].Entity, es[1])
	}
}

// TestCubeSortMatchesSliceStable: cubes whose changes tie heavily on
// (time, entity, property) must sort to exactly the order sort.SliceStable
// under Less gives — equal keys keep their append order.
func TestCubeSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		c := New()
		ents := []EntityID{c.AddEntityNamed("t", "a"), c.AddEntityNamed("t", "b")}
		props := []PropertyID{PropertyID(c.Properties.Intern("x")), PropertyID(c.Properties.Intern("y"))}
		n := rng.Intn(300)
		var want []Change
		for i := 0; i < n; i++ {
			ch := Change{
				Time:     int64(rng.Intn(4)),
				Entity:   ents[rng.Intn(len(ents))],
				Property: props[rng.Intn(len(props))],
				Value:    strconv.Itoa(i), // identifies the append position
				Kind:     ChangeKind(rng.Intn(3)),
				Bot:      rng.Intn(2) == 0,
			}
			c.Add(ch)
			want = append(want, ch)
		}
		sort.SliceStable(want, func(i, j int) bool { return Less(want[i], want[j]) })
		if got := c.Changes(); !slices.Equal(got, want) {
			t.Fatalf("round %d: %d changes sort differently from sort.SliceStable", round, n)
		}
	}
}

func TestCubeSpan(t *testing.T) {
	c, _ := buildTestCube()
	span := c.Span()
	if span.Start != 0 || span.End != 1 {
		t.Fatalf("span = %v, want [0,1) (all timestamps on epoch day)", span)
	}
	if (New()).Span() != (timeline.Span{}) {
		t.Fatal("empty cube span not empty")
	}
}

func TestCubeGroupings(t *testing.T) {
	c, es := buildTestCube()
	pop, _ := c.Properties.Lookup("population")
	k := FieldKey{Entity: es[0], Property: PropertyID(pop)}
	fields, groups := c.FieldIndexes()
	i := slices.Index(fields, k)
	if i < 0 {
		t.Fatal("no group for e1.population")
	}
	if got := c.FieldLog(groups[i]); got.Len() != 2 || got.At(0).Time != 1000 || got.At(1).Time != 2000 {
		t.Fatalf("field changes for e1.population = %+v", got)
	}
}

func TestCubeAddPanicsOnUnknownEntity(t *testing.T) {
	c := New()
	c.Properties.Intern("p")
	defer func() {
		if recover() == nil {
			t.Fatal("Add with unknown entity did not panic")
		}
	}()
	c.Add(Change{Entity: 5, Property: 0})
}

func TestCubeAddPanicsOnUnknownProperty(t *testing.T) {
	c := New()
	c.AddEntityNamed("t", "p")
	defer func() {
		if recover() == nil {
			t.Fatal("Add with unknown property did not panic")
		}
	}()
	c.Add(Change{Entity: 0, Property: 3})
}

func TestAddEntityPanicsOnUnknownTemplate(t *testing.T) {
	c := New()
	c.Pages.Intern("page")
	defer func() {
		if recover() == nil {
			t.Fatal("AddEntity with unknown template did not panic")
		}
	}()
	c.AddEntity(7, 0)
}

func TestChangeKindString(t *testing.T) {
	if Update.String() != "update" || Create.String() != "create" || Delete.String() != "delete" {
		t.Fatal("kind names wrong")
	}
	if ChangeKind(9).String() != "ChangeKind(9)" {
		t.Fatal("unknown kind formatting wrong")
	}
}

func TestChangeDay(t *testing.T) {
	ch := Change{Time: timeline.Date(2018, 9, 1).Unix() + 3600}
	if ch.Day() != timeline.Date(2018, 9, 1) {
		t.Fatalf("Day() = %v", ch.Day())
	}
}

// TestFieldIndexesMatchesAppendGrouping: over random cubes — appended out
// of order, with timestamp ties inside and across fields, empty, and
// dominated by single-change fields — FieldIndexes' counting-sort groups
// equal the plain map-append grouping of the sorted cube, come in field
// order, are each capped at their length, and an append to one never
// writes into another.
func TestFieldIndexesMatchesAppendGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		c := New()
		ents, props := 1+rng.Intn(6), 1+rng.Intn(5)
		c.Templates.Intern("t")
		c.Pages.Intern("p")
		for e := 0; e < ents; e++ {
			c.AddEntity(0, 0)
		}
		for p := 0; p < props; p++ {
			c.Properties.Intern(strconv.Itoa(p))
		}
		n := rng.Intn(60)
		if round%10 == 0 {
			n = 0
		}
		single := round%4 == 1 // mostly one change per field
		for i := 0; i < n; i++ {
			ch := Change{
				Time:     int64(rng.Intn(8)),
				Entity:   EntityID(rng.Intn(ents)),
				Property: PropertyID(rng.Intn(props)),
				Value:    strconv.Itoa(rng.Intn(3)),
			}
			if single {
				ch.Entity, ch.Property = EntityID(i%ents), PropertyID(i/ents%props)
				ch.Time = int64(rng.Intn(1000))
			}
			c.Add(ch)
		}

		fields, groups := c.FieldIndexes()
		want := make(map[FieldKey][]uint32)
		c.EachChange(func(i int, ch Change) bool {
			k := FieldKey{Entity: ch.Entity, Property: ch.Property}
			want[k] = append(want[k], uint32(i))
			return true
		})
		if len(fields) != len(want) || len(groups) != len(want) {
			t.Fatalf("round %d: %d fields and %d groups, want %d", round, len(fields), len(groups), len(want))
		}
		for i, k := range fields {
			if i > 0 && !fieldLess(fields[i-1], k) {
				t.Fatalf("round %d: fields %v and %v out of order", round, fields[i-1], k)
			}
			if !slices.Equal(groups[i], want[k]) {
				t.Fatalf("round %d: field %v = %v, want %v", round, k, groups[i], want[k])
			}
			if cap(groups[i]) != len(groups[i]) {
				t.Fatalf("round %d: field %v has cap %d for len %d", round, k, cap(groups[i]), len(groups[i]))
			}
		}
		for i := range groups {
			groups[i] = append(groups[i], 1<<31)
		}
		for i, k := range fields {
			if !slices.Equal(groups[i][:len(want[k])], want[k]) {
				t.Fatalf("round %d: an append to another group overwrote field %v", round, k)
			}
		}
	}
}

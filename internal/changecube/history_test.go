package changecube

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/wikistale/wikistale/internal/timeline"
)

func mkHistory(days ...timeline.Day) History {
	return NewHistory(FieldKey{Entity: 0, Property: 0}, days)
}

func TestHistoryQueries(t *testing.T) {
	h := mkHistory(3, 7, 10, 21)
	if h.Len() != 4 {
		t.Fatalf("Len = %d", h.Len())
	}
	if got := len(h.In(timeline.NewSpan(3, 11))); got != 3 {
		t.Fatalf("len(In([3,11))) = %d, want 3", got)
	}
	if got := len(h.In(timeline.NewSpan(11, 21))); got != 0 {
		t.Fatalf("len(In([11,21))) = %d, want 0", got)
	}
	if !h.ChangedIn(timeline.NewSpan(21, 22)) {
		t.Fatal("ChangedIn missed day 21")
	}
	if h.ChangedIn(timeline.NewSpan(22, 100)) {
		t.Fatal("ChangedIn found change after last day")
	}
	if got := h.Before(10); len(got) != 2 || got[1] != 7 {
		t.Fatalf("Before(10) = %v", got)
	}
	if got := h.In(timeline.NewSpan(7, 21)); len(got) != 2 || got[0] != 7 || got[1] != 10 {
		t.Fatalf("In([7,21)) = %v", got)
	}
}

func TestHistoryValidate(t *testing.T) {
	if err := mkHistory(1, 2, 3).Validate(); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	if err := mkHistory(1, 1).Validate(); err == nil {
		t.Fatal("duplicate day accepted")
	}
	if err := mkHistory(2, 1).Validate(); err == nil {
		t.Fatal("decreasing days accepted")
	}
}

// TestHistoryQueriesAgainstBruteForce cross-checks the binary-search
// implementations against linear scans on random histories.
func TestHistoryQueriesAgainstBruteForce(t *testing.T) {
	f := func(raw []uint8, s0, s1 uint8) bool {
		set := map[timeline.Day]bool{}
		for _, r := range raw {
			set[timeline.Day(r)] = true
		}
		days := make([]timeline.Day, 0, len(set))
		for d := range set {
			days = append(days, d)
		}
		sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
		h := NewHistory(FieldKey{}, days)
		lo, hi := timeline.Day(s0), timeline.Day(s1)
		if hi < lo {
			lo, hi = hi, lo
		}
		span := timeline.NewSpan(lo, hi)
		count := 0
		for _, d := range days {
			if span.Contains(d) {
				count++
			}
		}
		if len(h.In(span)) != count || h.ChangedIn(span) != (count > 0) {
			return false
		}
		before := 0
		for _, d := range days {
			if d < lo {
				before++
			}
		}
		return len(h.Before(lo)) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func buildHistorySet(t *testing.T) *HistorySet {
	t.Helper()
	c := New()
	e1 := c.AddEntityNamed("infobox settlement", "London")
	e2 := c.AddEntityNamed("infobox settlement", "Paris")
	pop := PropertyID(c.Properties.Intern("population"))
	area := PropertyID(c.Properties.Intern("area"))
	hs, err := NewHistorySet(c, []History{
		NewHistory(FieldKey{Entity: e2, Property: pop}, []timeline.Day{5, 6, 7, 8, 9, 10}),
		NewHistory(FieldKey{Entity: e1, Property: pop}, []timeline.Day{1, 2, 3, 4, 5}),
		NewHistory(FieldKey{Entity: e1, Property: area}, []timeline.Day{1, 9}),
	})
	if err != nil {
		t.Fatalf("NewHistorySet: %v", err)
	}
	return hs
}

func TestHistorySetOrderAndLookup(t *testing.T) {
	hs := buildHistorySet(t)
	if hs.Len() != 3 {
		t.Fatalf("Len = %d", hs.Len())
	}
	// Sorted by (entity, property): e1.pop(0,0), e1.area(0,1), e2.pop(1,0).
	fields := hs.Histories()
	if fields[0].Field.Entity != 0 || fields[2].Field.Entity != 1 {
		t.Fatalf("histories not in field order: %v", fields)
	}
	h, ok := hs.Get(FieldKey{Entity: 1, Property: 0})
	if !ok || h.Len() != 6 {
		t.Fatalf("Get(e2.pop) = %v, %v", h, ok)
	}
	if _, ok := hs.Get(FieldKey{Entity: 9, Property: 0}); ok {
		t.Fatal("Get returned a missing field")
	}
	if hs.TotalChanges() != 13 {
		t.Fatalf("TotalChanges = %d, want 13", hs.TotalChanges())
	}
	span := hs.Span()
	if span.Start != 1 || span.End != 11 {
		t.Fatalf("Span = %v, want [1,11)", span)
	}
}

func TestHistorySetGroupings(t *testing.T) {
	hs := buildHistorySet(t)
	byPage := hs.ByPage()
	london, _ := hs.Cube().Pages.Lookup("London")
	if got := byPage[PageID(london)]; len(got) != 2 {
		t.Fatalf("London has %d histories, want 2", len(got))
	}
}

func TestHistorySetRejectsInvalid(t *testing.T) {
	c := New()
	e := c.AddEntityNamed("t", "p")
	prop := PropertyID(c.Properties.Intern("x"))
	if _, err := NewHistorySet(c, []History{NewHistory(FieldKey{Entity: e, Property: prop}, nil)}); err == nil {
		t.Fatal("empty history accepted")
	}
	if _, err := NewHistorySet(c, []History{
		NewHistory(FieldKey{Entity: e, Property: prop}, []timeline.Day{1}),
		NewHistory(FieldKey{Entity: e, Property: prop}, []timeline.Day{2}),
	}); err == nil {
		t.Fatal("duplicate field accepted")
	}
	if _, err := NewHistorySet(c, []History{
		NewHistory(FieldKey{Entity: 42, Property: prop}, []timeline.Day{1}),
	}); err == nil {
		t.Fatal("unknown entity accepted")
	}
}

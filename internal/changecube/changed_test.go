package changecube

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/wikistale/wikistale/internal/timeline"
)

// randomDays draws a sorted, deduplicated day set with heavy-tailed gaps —
// the shape real change histories have.
func randomDays(rng *rand.Rand) []timeline.Day {
	n := 1 + rng.Intn(60)
	days := make([]timeline.Day, 0, n)
	d := timeline.Day(rng.Intn(1000))
	for i := 0; i < n; i++ {
		days = append(days, d)
		d += timeline.Day(1 + rng.Intn(400))
	}
	return days
}

// diffCube is a cube with n entities on n pages and three properties,
// enough for ChangedSince fixtures.
func diffCube(n int) *Cube {
	c := New()
	for i := 0; i < n; i++ {
		c.AddEntityNamed("infobox test", fmt.Sprintf("Page %d", i))
	}
	for _, p := range []string{"a", "b", "c"} {
		c.Properties.Intern(p)
	}
	return c
}

func mustSet(t *testing.T, c *Cube, hs ...History) *HistorySet {
	t.Helper()
	set, err := NewHistorySet(c, hs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// packedOf copies every history of set back to back into one shared day
// arena, each capped at its own end: the layout the epoch store decodes a
// snapshot into.
func packedOf(set *HistorySet) *HistorySet {
	var arena []timeline.Day
	for _, h := range set.Histories() {
		arena = append(arena, h.Days()...)
	}
	out := make([]History, 0, set.Len())
	start := 0
	for _, h := range set.Histories() {
		end := start + h.Len()
		out = append(out, NewHistory(h.Field, arena[start:end:end]))
		start = end
	}
	packed, err := NewHistorySet(set.Cube(), out)
	if err != nil {
		panic(err)
	}
	return packed
}

// readGapDays reads n days written as a signed first day followed by
// unsigned gaps, the day encoding of epoch snapshots.
func readGapDays(t *testing.T, buf []byte, n int) []timeline.Day {
	t.Helper()
	r := NewReader(buf)
	first, err := r.Varint("first day")
	if err != nil {
		t.Fatal(err)
	}
	days := []timeline.Day{timeline.Day(first)}
	for len(days) < n {
		gap, err := r.Uvarint("day gap")
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, days[len(days)-1]+timeline.Day(gap))
	}
	if r.Len() != 0 {
		t.Fatalf("% x: %d bytes left unread", buf, r.Len())
	}
	return days
}

// changedSinceReference is the brute-force ChangedSince: every field of
// either set, compared by presence and decoded days.
func changedSinceReference(now, prev *HistorySet) map[FieldKey]bool {
	out := make(map[FieldKey]bool)
	for _, pair := range [][2]*HistorySet{{now, prev}, {prev, now}} {
		for _, h := range pair[0].Histories() {
			o, ok := pair[1].Get(h.Field)
			if !ok || !slices.Equal(h.Days(), o.Days()) {
				out[h.Field] = true
			}
		}
	}
	return out
}

func TestChangedSinceTable(t *testing.T) {
	c := diffCube(4)
	f := func(e, p int) FieldKey { return FieldKey{Entity: EntityID(e), Property: PropertyID(p)} }
	shared := []timeline.Day{3, 9, 40}
	// The days of shared read from bytes whose one gap is written as an
	// overlong varint: the same days, decoded from different bytes.
	overlong := NewHistory(f(0, 0), readGapDays(t, []byte{6, 0x86, 0x00, 31}, 3))
	base := func() []History {
		return []History{
			NewHistory(f(0, 0), shared),
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100}),
		}
	}
	prev := mustSet(t, c, base()...)
	prevPacked := packedOf(prev)

	cases := []struct {
		name string
		prev *HistorySet
		now  *HistorySet
		want []FieldKey
	}{
		{"same set", prev, prev, nil},
		{"shared slices", prev, mustSet(t, c, base()...), nil},
		{"copied slices", prev, mustSet(t, c,
			NewHistory(f(0, 0), slices.Clone(shared)),
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100})), nil},
		{"added field", prev, mustSet(t, c, append(base(),
			NewHistory(f(3, 2), []timeline.Day{7}))...), []FieldKey{f(3, 2)}},
		{"vanished field", prev, mustSet(t, c, base()[:2]...), []FieldKey{f(2, 0)}},
		{"vanished and added", prev, mustSet(t, c,
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100}),
			NewHistory(f(2, 1), []timeline.Day{1})), []FieldKey{f(0, 0), f(2, 1)}},
		{"appended day", prev, mustSet(t, c,
			NewHistory(f(0, 0), []timeline.Day{3, 9, 40, 41}),
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100})), []FieldKey{f(0, 0)}},
		{"inner day moved", prev, mustSet(t, c,
			NewHistory(f(0, 0), []timeline.Day{3, 10, 40}),
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100})), []FieldKey{f(0, 0)}},
		{"packed vs packed, one arena", prevPacked, prevPacked, nil},
		{"packed vs packed, two arenas", prevPacked, packedOf(mustSet(t, c, base()...)), nil},
		{"packed vs slice", prevPacked, mustSet(t, c, base()...), nil},
		{"slice vs packed", prev, prevPacked, nil},
		{"packed vs slice, changed", prevPacked, mustSet(t, c,
			NewHistory(f(0, 0), []timeline.Day{3, 9, 41}),
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100})), []FieldKey{f(0, 0)}},
		{"overlong varint vs canonical", prevPacked, mustSet(t, c,
			overlong,
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100})), nil},
		{"overlong varint vs slice", prev, mustSet(t, c,
			overlong,
			NewHistory(f(1, 1), []timeline.Day{5, 6}),
			NewHistory(f(2, 0), []timeline.Day{100})), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := make(map[FieldKey]bool)
			for _, k := range tc.want {
				want[k] = true
			}
			got := tc.now.ChangedSince(tc.prev)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ChangedSince = %v, want %v", got, want)
			}
			if ref := changedSinceReference(tc.now, tc.prev); !reflect.DeepEqual(got, ref) {
				t.Fatalf("ChangedSince = %v, brute force %v", got, ref)
			}
		})
	}
}

// TestChangedSinceRandomized mutates random history sets — fields added,
// dropped, extended, shifted, copied or left shared — in every pairing of
// separately allocated and arena-packed days, and checks ChangedSince
// against the brute-force comparison.
func TestChangedSinceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const entities = 40
	c := diffCube(entities)
	for trial := 0; trial < 200; trial++ {
		var prevHs []History
		for e := 0; e < entities; e++ {
			for p := 0; p < 3; p++ {
				if rng.Intn(3) == 0 {
					prevHs = append(prevHs, NewHistory(FieldKey{Entity: EntityID(e), Property: PropertyID(p)}, randomDays(rng)))
				}
			}
		}
		prev := mustSet(t, c, prevHs...)
		var nowHs []History
		for _, h := range prev.Histories() {
			days := h.Days()
			switch rng.Intn(6) {
			case 0: // vanished
				continue
			case 1: // one more day
				days = append(slices.Clone(days), days[len(days)-1]+timeline.Day(1+rng.Intn(30)))
			case 2: // last day moved, same length
				days = slices.Clone(days)
				days[len(days)-1] += timeline.Day(1 + rng.Intn(5))
			case 3: // same days, fresh storage
				days = slices.Clone(days)
			}
			nowHs = append(nowHs, NewHistory(h.Field, days))
		}
		for e := 0; e < entities; e++ {
			field := FieldKey{Entity: EntityID(e), Property: PropertyID(rng.Intn(3))}
			if _, ok := prev.Get(field); !ok && rng.Intn(4) == 0 {
				nowHs = append(nowHs, NewHistory(field, randomDays(rng)))
			}
		}
		now := mustSet(t, c, nowHs...)
		want := changedSinceReference(now, prev)
		for _, pair := range []struct {
			name      string
			prev, now *HistorySet
		}{
			{"slice/slice", prev, now},
			{"packed/slice", packedOf(prev), now},
			{"slice/packed", prev, packedOf(now)},
			{"packed/packed", packedOf(prev), packedOf(now)},
		} {
			if got := pair.now.ChangedSince(pair.prev); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: ChangedSince = %v, brute force %v", trial, pair.name, got, want)
			}
		}
		if got := prev.ChangedSince(prev); len(got) != 0 {
			t.Fatalf("trial %d: a set differs from itself: %v", trial, got)
		}
	}
}

// TestHistorySameIn: SameIn answers exactly as comparing the two windows
// filtered day by day, for random span pairs.
func TestHistorySameIn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		h := NewHistory(FieldKey{}, randomDays(rng))
		in := func(span timeline.Span) []timeline.Day {
			var out []timeline.Day
			for _, d := range h.Days() {
				if d >= span.Start && d < span.End {
					out = append(out, d)
				}
			}
			return out
		}
		span := func() timeline.Span {
			start := timeline.Day(rng.Intn(3000) - 100)
			return timeline.Span{Start: start, End: start + timeline.Day(rng.Intn(2000))}
		}
		for q := 0; q < 20; q++ {
			a, b := span(), span()
			if q%4 == 0 {
				b = timeline.Span{Start: a.Start, End: a.End + timeline.Day(rng.Intn(50))}
			}
			want := slices.Equal(in(a), in(b))
			if got := h.SameIn(a, b); got != want {
				t.Fatalf("trial %d: SameIn(%v, %v) = %v, want %v", trial, a, b, got, want)
			}
		}
	}
}

// TestDirtyUnits: the shared retrain rule marks a unit for each changed or
// vanished field it owns and for each field whose in-window days moved with
// the window, and nothing else. Units here are pages, one per entity.
func TestDirtyUnits(t *testing.T) {
	c := diffCube(4)
	f := func(e, p int) FieldKey { return FieldKey{Entity: EntityID(e), Property: PropertyID(p)} }
	hs := mustSet(t, c,
		NewHistory(f(0, 0), []timeline.Day{3, 9, 40}),
		NewHistory(f(1, 1), []timeline.Day{5, 6}),
		NewHistory(f(2, 0), []timeline.Day{100}))
	page := func(k FieldKey) PageID { return c.Page(k.Entity) }
	win := timeline.NewSpan(0, 50)
	changed := func(keys ...FieldKey) Delta {
		d := Delta{Changed: make(map[FieldKey]bool)}
		for _, k := range keys {
			d.Changed[k] = true
		}
		return d
	}

	cases := []struct {
		name    string
		delta   Delta
		prevWin timeline.Span
		want    []FieldKey // fields whose pages must be dirty
	}{
		{"changed field", changed(f(1, 1)), win, []FieldKey{f(1, 1)}},
		{"vanished field", changed(f(3, 2)), win, []FieldKey{f(3, 2)}},
		{"moved window, untouched field", changed(), timeline.NewSpan(0, 101), []FieldKey{f(2, 0)}},
		{"moved window and changed field", changed(f(1, 1)), timeline.NewSpan(4, 50), []FieldKey{f(0, 0), f(1, 1)}},
		{"equal windows", changed(), timeline.NewSpan(1, 60), nil},
		{"same window", changed(), win, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DirtyUnits(hs, tc.delta, tc.prevWin, win, page)
			want := make(map[PageID]bool)
			for _, k := range tc.want {
				want[page(k)] = true
			}
			if got.Full != "" || !reflect.DeepEqual(got.Units, want) {
				t.Fatalf("DirtyUnits = %+v, want units %v", got, want)
			}
			for p := PageID(0); p < 4; p++ {
				if got.Has(p) != want[p] {
					t.Fatalf("Has(%d) = %v, want %v", p, got.Has(p), want[p])
				}
			}
		})
	}

	t.Run("full delta", func(t *testing.T) {
		for _, d := range []Delta{Cold, {Full: "forced"}, changed(f(0, 0)).Rebuild("span"), Cold.Rebuild("span")} {
			got := DirtyUnits(hs, d, win, timeline.NewSpan(7, 9), page)
			if got.Full == "" || got.Units != nil || !got.Has(page(f(1, 1))) {
				t.Fatalf("DirtyUnits(%+v) = %+v, want every unit dirty", d, got)
			}
		}
		if got := Cold.Rebuild("span").Full; got != "cold" {
			t.Fatalf("Rebuild overrode the cold reason: %q", got)
		}
	})

	t.Run("dirty histories", func(t *testing.T) {
		self := func(k FieldKey) FieldKey { return k }
		got := hs.DirtyHistories(DirtyUnits(hs, changed(f(2, 0), f(3, 2), f(0, 0)), win, win, self))
		if len(got) != 2 || got[0].Field != f(0, 0) || got[1].Field != f(2, 0) {
			t.Fatalf("DirtyHistories = %v, want f(0,0) and f(2,0) in field order", got)
		}
		if got := hs.DirtyHistories(DirtyUnits(hs, Cold, win, win, self)); len(got) != hs.Len() {
			t.Fatalf("full DirtyHistories has %d histories, want all %d", len(got), hs.Len())
		}
	})
}

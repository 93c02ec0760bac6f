package filter

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

const day = int64(24 * 60 * 60)

// fieldCube builds a cube with a single entity/property and the given
// changes applied to it.
func fieldCube(chs ...changecube.Change) *changecube.Cube {
	c := changecube.New()
	e := c.AddEntityNamed("infobox test", "Page")
	p := changecube.PropertyID(c.Properties.Intern("prop"))
	for _, ch := range chs {
		ch.Entity = e
		ch.Property = p
		c.Add(ch)
	}
	return c
}

func upd(t int64, v string) changecube.Change {
	return changecube.Change{Time: t, Value: v, Kind: changecube.Update}
}

func TestDropBotReverts(t *testing.T) {
	chs := []changecube.Change{
		upd(0, "good"),
		upd(10, "VANDAL"),
		{Time: 20, Value: "good", Kind: changecube.Update, Bot: true},
		upd(30, "newer"),
	}
	if f := ApplyField(chs, Default()); f.AfterBotReverts != 2 {
		t.Fatalf("%d changes survive stage 1, want 2 (edit and revert dropped): %+v", f.AfterBotReverts, f)
	}
}

func TestBotRevertOutsideHorizonKept(t *testing.T) {
	chs := []changecube.Change{
		upd(0, "good"),
		upd(10, "VANDAL"),
		{Time: 10 + 3*day, Value: "good", Kind: changecube.Update, Bot: true},
	}
	if f := ApplyField(chs, Default()); f.AfterBotReverts != 3 {
		t.Fatalf("late bot revert removed: %+v", f)
	}
}

func TestBotEditThatIsNotARevertKept(t *testing.T) {
	chs := []changecube.Change{
		upd(0, "a"),
		upd(10, "b"),
		{Time: 20, Value: "c", Kind: changecube.Update, Bot: true},
	}
	if f := ApplyField(chs, Default()); f.AfterBotReverts != 3 {
		t.Fatalf("bot edit with new value removed: %+v", f)
	}
}

// TestDayRepresentativeKinds: a day opening the field with a Create and a
// day closing with a Delete are dropped at stage 3; the update day stays.
func TestDayRepresentativeKinds(t *testing.T) {
	chs := []changecube.Change{
		{Time: 0, Value: "v", Kind: changecube.Create},
		upd(100, "w"),
		upd(day, "x"),
		{Time: 2 * day, Kind: changecube.Delete},
	}
	f := ApplyField(chs, Default())
	if f.AfterDayDedup != 3 {
		t.Fatalf("%d day groups, want 3: %+v", f.AfterDayDedup, f)
	}
	if want := []timeline.Day{1}; !slices.Equal(f.Days, want) {
		t.Fatalf("update days = %v, want %v (day 0 is a Create, day 2 a Delete)", f.Days, want)
	}
}

func TestApplyFullPipeline(t *testing.T) {
	// A field with: a create, 6 real update days, a vandalism/bot-revert
	// pair, an intra-day burst, and a delete.
	var chs []changecube.Change
	chs = append(chs, changecube.Change{Time: 0, Value: "v0", Kind: changecube.Create})
	for i := 1; i <= 6; i++ {
		chs = append(chs, upd(int64(i)*day, "v"+strings.Repeat("i", i)))
	}
	// Same-day burst on day 7: three edits, mode v7.
	chs = append(chs, upd(7*day, "v7"), upd(7*day+100, "typo"), upd(7*day+200, "v7"))
	// Vandalism on day 8 reverted by a bot within the horizon.
	chs = append(chs, upd(8*day, "VANDAL"))
	chs = append(chs, changecube.Change{Time: 8*day + 50, Value: "v7", Kind: changecube.Update, Bot: true})
	chs = append(chs, changecube.Change{Time: 9 * day, Kind: changecube.Delete})

	cube := fieldCube(chs...)
	hs, stats, err := Apply(cube, Default())
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if hs.Len() != 1 {
		t.Fatalf("fields = %d, want 1", hs.Len())
	}
	h := hs.Histories()[0]
	// Surviving days: 1..6 (updates) and 7 (burst); create day 0,
	// vandalism day 8 and delete day 9 are gone.
	want := []timeline.Day{1, 2, 3, 4, 5, 6, 7}
	days := h.Days()
	if len(days) != len(want) {
		t.Fatalf("days = %v, want %v", days, want)
	}
	for i := range want {
		if days[i] != want[i] {
			t.Fatalf("days = %v, want %v", days, want)
		}
	}
	if len(stats.Stages) != 4 {
		t.Fatalf("stages = %+v", stats.Stages)
	}
	if stats.Stages[0].In != len(chs) {
		t.Fatalf("stage 1 in = %d, want %d", stats.Stages[0].In, len(chs))
	}
	if got := stats.Stages[len(stats.Stages)-1].Out; got != 7 {
		t.Fatalf("final out = %d, want 7", got)
	}
	if s := stats.Survival(); s <= 0 || s >= 1 {
		t.Fatalf("survival = %v", s)
	}
	if !strings.Contains(stats.String(), "survival") {
		t.Fatal("String() lacks survival line")
	}
}

func TestApplyMinChangesDropsSparseFields(t *testing.T) {
	c := changecube.New()
	e1 := c.AddEntityNamed("t", "p1")
	e2 := c.AddEntityNamed("t", "p2")
	busy := changecube.PropertyID(c.Properties.Intern("busy"))
	static := changecube.PropertyID(c.Properties.Intern("birth_date"))
	for i := 0; i < 6; i++ {
		c.Add(changecube.Change{Time: int64(i) * day, Entity: e1, Property: busy, Value: "v", Kind: changecube.Update})
	}
	for i := 0; i < 2; i++ {
		c.Add(changecube.Change{Time: int64(i) * day, Entity: e2, Property: static, Value: "v", Kind: changecube.Update})
	}
	hs, _, err := Apply(c, Default())
	if err != nil {
		t.Fatal(err)
	}
	if hs.Len() != 1 {
		t.Fatalf("fields = %d, want 1 (static field dropped)", hs.Len())
	}
	if hs.Histories()[0].Field.Entity != e1 {
		t.Fatal("wrong field survived")
	}
}

func TestApplyRejectsBadConfig(t *testing.T) {
	c := changecube.New()
	if _, _, err := Apply(c, Config{MinChanges: 0}); err == nil {
		t.Fatal("MinChanges 0 accepted")
	}
	if _, _, err := Apply(c, Config{MinChanges: 5, BotRevertHorizonDays: -1}); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestApplyEmptyCube(t *testing.T) {
	hs, stats, err := Apply(changecube.New(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if hs.Len() != 0 || stats.Survival() != 0 {
		t.Fatalf("empty cube: len=%d survival=%v", hs.Len(), stats.Survival())
	}
}

// TestApplyIdempotentOnCleanData: data that is already one update per day
// with >= MinChanges changes passes through unchanged.
func TestApplyIdempotentOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	prop := changecube.PropertyID(c.Properties.Intern("x"))
	days := rng.Perm(50)[:10]
	uniq := map[int]bool{}
	for _, d := range days {
		uniq[d] = true
	}
	n := 0
	for d := range uniq {
		c.Add(changecube.Change{Time: int64(d) * day, Entity: e, Property: prop,
			Value: "v", Kind: changecube.Update})
		n++
	}
	hs, stats, err := Apply(c, Default())
	if err != nil {
		t.Fatal(err)
	}
	if hs.TotalChanges() != n {
		t.Fatalf("clean data altered: %d -> %d", n, hs.TotalChanges())
	}
	for _, st := range stats.Stages {
		if st.In != st.Out {
			t.Fatalf("stage %s removed clean changes: %+v", st.Name, st)
		}
	}
}

package predict

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

func buildSet(t *testing.T) (*changecube.HistorySet, changecube.FieldKey, changecube.FieldKey) {
	t.Helper()
	c := changecube.New()
	e := c.AddEntityNamed("infobox t", "Page")
	a := changecube.PropertyID(c.Properties.Intern("a"))
	b := changecube.PropertyID(c.Properties.Intern("b"))
	fa := changecube.FieldKey{Entity: e, Property: a}
	fb := changecube.FieldKey{Entity: e, Property: b}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(fa, []timeline.Day{5, 10, 15, 20}),
		changecube.NewHistory(fb, []timeline.Day{5, 12, 15}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return hs, fa, fb
}

func TestTargetDaysStopAtWindowStart(t *testing.T) {
	hs, fa, _ := buildSet(t)
	w := timeline.Window{Span: timeline.NewSpan(10, 17), Index: 0}
	ctx := NewContext(hs, fa, w)
	days := ctx.TargetDays()
	if len(days) != 1 || days[0] != 5 {
		t.Fatalf("TargetDays = %v, want [5] (changes at 10, 15 are hidden)", days)
	}
}

func TestFieldChangedInClampsTargetToWindowStart(t *testing.T) {
	hs, fa, _ := buildSet(t)
	w := timeline.Window{Span: timeline.NewSpan(10, 17)}
	ctx := NewContext(hs, fa, w)
	// The target's own change at day 10 and 15 must be invisible.
	if ctx.FieldChangedIn(fa, timeline.NewSpan(10, 17)) {
		t.Fatal("target change inside window leaked")
	}
	if !ctx.FieldChangedIn(fa, timeline.NewSpan(0, 17)) {
		t.Fatal("target change before window start should be visible")
	}
}

func TestFieldChangedInClampsOthersToWindowEnd(t *testing.T) {
	hs, fa, fb := buildSet(t)
	w := timeline.Window{Span: timeline.NewSpan(10, 14)}
	ctx := NewContext(hs, fa, w)
	// fb changed on day 12 (inside window): visible.
	if !ctx.FieldChangedIn(fb, w.Span) {
		t.Fatal("other field's in-window change invisible")
	}
	// fb's change on day 15 (after window end) must not be visible even if
	// the queried span extends past the window.
	if ctx.FieldChangedIn(fb, timeline.NewSpan(14, 100)) {
		t.Fatal("future change beyond window end leaked")
	}
}

func TestFieldChangedInUnknownField(t *testing.T) {
	hs, fa, _ := buildSet(t)
	ctx := NewContext(hs, fa, timeline.Window{Span: timeline.NewSpan(0, 10)})
	ghost := changecube.FieldKey{Entity: 0, Property: 99}
	if ctx.FieldChangedIn(ghost, timeline.NewSpan(0, 10)) {
		t.Fatal("unknown field reported a change")
	}
}

func TestAccessors(t *testing.T) {
	hs, fa, _ := buildSet(t)
	w := timeline.Window{Span: timeline.NewSpan(1, 2), Index: 7}
	ctx := NewContext(hs, fa, w)
	if ctx.Target() != fa || ctx.Window() != w || ctx.Cube() != hs.Cube() {
		t.Fatal("accessors broken")
	}
}

func TestFuncAdapter(t *testing.T) {
	p := Func{PredictorName: "always", Fn: func(Context) bool { return true }}
	if p.Name() != "always" || !p.Predict(Context{}) {
		t.Fatal("Func adapter broken")
	}
}

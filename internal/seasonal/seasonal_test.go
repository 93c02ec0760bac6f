package seasonal

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// buildSet wires arbitrary histories into a HistorySet on one entity.
func buildSet(t *testing.T, fieldDays ...[]timeline.Day) (*changecube.HistorySet, []changecube.FieldKey) {
	t.Helper()
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	var histories []changecube.History
	var keys []changecube.FieldKey
	for i, days := range fieldDays {
		prop := changecube.PropertyID(c.Properties.Intern(propName(i)))
		k := changecube.FieldKey{Entity: e, Property: prop}
		keys = append(keys, k)
		histories = append(histories, changecube.NewHistory(k, days))
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs, keys
}

func propName(i int) string { return string(rune('a' + i)) }

// yearly returns change days at dayOfYear+jitter for the given years.
func yearly(dayOfYear int, jitters ...int) []timeline.Day {
	var days []timeline.Day
	for year, j := range jitters {
		days = append(days, timeline.Day(year*365+dayOfYear+j))
	}
	return days
}

func TestTrainFindsYearlyAnchor(t *testing.T) {
	// Changes around day-of-year 100 in 6 consecutive years, jitter ±3.
	hs, keys := buildSet(t, yearly(100, 0, 2, -3, 1, 0, -1))
	p, err := Train(hs, timeline.NewSpan(0, 6*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	anchors := p.anchors[keys[0]]
	if len(anchors) != 1 {
		t.Fatalf("anchors = %v, want one", anchors)
	}
	if a := anchors[0]; a.DayOfYear < 97 || a.DayOfYear > 103 || a.Years != 6 {
		t.Fatalf("anchor = %+v", a)
	}
}

func TestTrainRejectsIrregularField(t *testing.T) {
	// Six changes scattered with no yearly rhythm.
	hs, keys := buildSet(t, []timeline.Day{10, 150, 380, 700, 1200, 1800})
	p, err := Train(hs, timeline.NewSpan(0, 6*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.Covers(keys[0]) {
		t.Fatalf("irregular field got anchors: %v", p.anchors[keys[0]])
	}
}

func TestTrainRequiresEnoughYears(t *testing.T) {
	// Only two years of history: below MinYears=3.
	hs, keys := buildSet(t, yearly(50, 0, 1))
	p, err := Train(hs, timeline.NewSpan(0, 3*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.Covers(keys[0]) {
		t.Fatal("two-year field got an anchor")
	}
}

func TestTrainRecurrenceFraction(t *testing.T) {
	// Ten observed years but only 4 hit the anchor: 40% < 70%.
	days := append(yearly(200, 0, 1, -1, 2), timeline.Day(9*365+10))
	hs, keys := buildSet(t, days)
	p, err := Train(hs, timeline.NewSpan(0, 10*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.Covers(keys[0]) {
		t.Fatal("sporadic field got an anchor")
	}
}

func TestWrapAroundAnchor(t *testing.T) {
	// New-Year's-Eve field: changes at day-of-year 363..1 across years.
	days := []timeline.Day{
		363,         // year 0, doy 363
		365 + 364,   // year 1, doy 364
		2*365 + 0,   // year 2 start, doy 0
		3*365 + 1,   // year 3, doy 1
		4*365 + 364, // year 4
		5*365 + 0,   // year 5
	}
	hs, keys := buildSet(t, days)
	p, err := Train(hs, timeline.NewSpan(0, 6*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	anchors := p.anchors[keys[0]]
	if len(anchors) != 1 {
		t.Fatalf("wrap-around anchors = %v, want one", anchors)
	}
	// Prediction across the seam: a window covering the year boundary.
	w := timeline.Window{Span: timeline.NewSpan(6*365-15, 6*365+15)}
	if !p.Predict(predict.NewContext(hs, keys[0], w)) {
		t.Fatal("seam window missed the wrap-around anchor")
	}
}

func TestPredictWindows(t *testing.T) {
	hs, keys := buildSet(t, yearly(100, 0, 1, -1, 0, 2, 0))
	p, err := Train(hs, timeline.NewSpan(0, 6*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(start, end timeline.Day) predict.Context {
		return predict.NewContext(hs, keys[0], timeline.Window{Span: timeline.NewSpan(start, end)})
	}
	year6 := timeline.Day(6 * 365)
	// Monthly window covering the next year's anchor.
	if !p.Predict(mk(year6+90, year6+120)) {
		t.Fatal("monthly window on the anchor not predicted")
	}
	// Monthly window away from the anchor.
	if p.Predict(mk(year6+180, year6+210)) {
		t.Fatal("off-season month predicted")
	}
	// Daily window on the anchor day: below MinWindowDays, no prediction —
	// a yearly rhythm cannot pin a change to a day.
	if p.Predict(mk(year6+100, year6+101)) {
		t.Fatal("daily prediction despite MinWindowDays")
	}
	// Yearly window always covers a seasonal field's anchor.
	if !p.Predict(mk(year6, year6+365)) {
		t.Fatal("yearly window missed the anchor")
	}
}

func TestPredictRespectsDormancy(t *testing.T) {
	// Six seasonal years, then the page dies: predicting three years later
	// must stay silent even though the window covers the anchor.
	hs, keys := buildSet(t, yearly(100, 0, 1, -1, 0, 2, 0))
	p, err := Train(hs, timeline.NewSpan(0, 6*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	year9 := timeline.Day(9 * 365)
	w := timeline.Window{Span: timeline.NewSpan(year9+90, year9+120)}
	if p.Predict(predict.NewContext(hs, keys[0], w)) {
		t.Fatal("dormant field predicted")
	}
}

func TestExplainReturnsAnchor(t *testing.T) {
	hs, keys := buildSet(t, yearly(100, 0, 1, -1, 0))
	p, err := Train(hs, timeline.NewSpan(0, 4*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	w := timeline.Window{Span: timeline.NewSpan(4*365+85, 4*365+115)}
	a := p.Explain(predict.NewContext(hs, keys[0], w))
	if a == nil || a.DayOfYear < 97 || a.DayOfYear > 103 {
		t.Fatalf("Explain = %+v", a)
	}
	off := timeline.Window{Span: timeline.NewSpan(4*365+200, 4*365+230)}
	if p.Explain(predict.NewContext(hs, keys[0], off)) != nil {
		t.Fatal("Explain fired off-season")
	}
}

func TestMultipleAnchors(t *testing.T) {
	// Spring and autumn events every year.
	var days []timeline.Day
	for year := 0; year < 5; year++ {
		days = append(days, timeline.Day(year*365+90), timeline.Day(year*365+270))
	}
	hs, keys := buildSet(t, days)
	p, err := Train(hs, timeline.NewSpan(0, 5*365), Default())
	if err != nil {
		t.Fatal(err)
	}
	anchors := p.anchors[keys[0]]
	if len(anchors) != 2 {
		t.Fatalf("anchors = %v, want two", anchors)
	}
	if anchors[0].DayOfYear != 90 || anchors[1].DayOfYear != 270 {
		t.Fatalf("anchor positions = %v", anchors)
	}
}

func TestConfigValidation(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		cfg := Default()
		f(&cfg)
		return cfg
	}
	bad := []Config{
		mutate(func(c *Config) { c.MinYears = 1 }),
		mutate(func(c *Config) { c.RecurrenceFraction = 0 }),
		mutate(func(c *Config) { c.RecurrenceFraction = 1.5 }),
		mutate(func(c *Config) { c.ToleranceDays = -1 }),
		mutate(func(c *Config) { c.ToleranceDays = 120 }),
		mutate(func(c *Config) { c.MinWindowDays = 0 }),
		mutate(func(c *Config) { c.MaxDormancyDays = 100 }),
	}
	hs, _ := buildSet(t, yearly(10, 0, 0, 0))
	for i, cfg := range bad {
		if _, err := Train(hs, timeline.NewSpan(0, 1000), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestName(t *testing.T) {
	if (&Predictor{}).Name() != "seasonal" {
		t.Fatal("name wrong")
	}
}

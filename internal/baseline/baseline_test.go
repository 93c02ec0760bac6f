package baseline

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

func singleFieldSet(t *testing.T, days ...timeline.Day) (*changecube.HistorySet, changecube.FieldKey) {
	t.Helper()
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	prop := changecube.PropertyID(c.Properties.Intern("x"))
	f := changecube.FieldKey{Entity: e, Property: prop}
	hs, err := changecube.NewHistorySet(c, []changecube.History{changecube.NewHistory(f, days)})
	if err != nil {
		t.Fatal(err)
	}
	return hs, f
}

func TestMeanPredictsRegularField(t *testing.T) {
	// Changes every 10 days: 0, 10, ..., 100. Mean gap 10; last visible
	// change before window [105, 112) is 100; next expected 110 ∈ window.
	var days []timeline.Day
	for d := timeline.Day(0); d <= 100; d += 10 {
		days = append(days, d)
	}
	hs, f := singleFieldSet(t, days...)
	w := timeline.Window{Span: timeline.NewSpan(105, 112)}
	if !(Mean{}).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("mean baseline missed the periodic change")
	}
	// Window [101, 105): next expected change is 110, outside.
	w2 := timeline.Window{Span: timeline.NewSpan(101, 105)}
	if (Mean{}).Predict(predict.NewContext(hs, f, w2)) {
		t.Fatal("mean baseline fired early")
	}
}

func TestMeanCatchesUpWhenOverdue(t *testing.T) {
	// Last change at 100, mean gap 10. Window [135, 140): extrapolated
	// changes 110, 120, 130 are overdue; 140 is outside but the k-th
	// prediction catching the window is... 110,120,130 < 135; 140 >= 140:
	// no prediction. Window [125,135): 130 falls inside -> predict.
	var days []timeline.Day
	for d := timeline.Day(0); d <= 100; d += 10 {
		days = append(days, d)
	}
	hs, f := singleFieldSet(t, days...)
	if !(Mean{}).Predict(predict.NewContext(hs, f, timeline.Window{Span: timeline.NewSpan(125, 135)})) {
		t.Fatal("overdue extrapolation missed")
	}
	if (Mean{}).Predict(predict.NewContext(hs, f, timeline.Window{Span: timeline.NewSpan(135, 140)})) {
		t.Fatal("extrapolation grid misaligned")
	}
}

func TestMeanNeedsTwoChanges(t *testing.T) {
	hs, f := singleFieldSet(t, 5)
	w := timeline.Window{Span: timeline.NewSpan(6, 100)}
	if (Mean{}).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("mean baseline predicted with a single change")
	}
}

func TestMeanIgnoresHiddenWindowChanges(t *testing.T) {
	// Changes at 0,10,20 then inside the window at 25: only 0,10,20 are
	// visible; mean gap 10, next 30, window [24,28) -> no prediction.
	hs, f := singleFieldSet(t, 0, 10, 20, 25)
	w := timeline.Window{Span: timeline.NewSpan(24, 28)}
	if (Mean{}).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("hidden in-window change leaked into the mean")
	}
}

func TestMeanLargeWindowCoversNext(t *testing.T) {
	hs, f := singleFieldSet(t, 0, 100)
	// Mean gap 100, next change 200; yearly window [150, 515) contains it.
	w := timeline.Window{Span: timeline.NewSpan(150, 515)}
	if !(Mean{}).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("yearly window missed extrapolated change")
	}
}

func TestThresholdTrainsPerSize(t *testing.T) {
	// Validation year [0, 365). A field changing every day trivially
	// passes all sizes; a field changing every 10 days changes in all
	// 30-day and 365-day windows but not in 85% of 1-day windows.
	var daily, sparse []timeline.Day
	for d := timeline.Day(0); d < 365; d++ {
		daily = append(daily, d)
	}
	for d := timeline.Day(0); d < 365; d += 10 {
		sparse = append(sparse, d)
	}
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	fd := changecube.FieldKey{Entity: e, Property: changecube.PropertyID(c.Properties.Intern("daily"))}
	fs := changecube.FieldKey{Entity: e, Property: changecube.PropertyID(c.Properties.Intern("sparse"))}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(fd, daily),
		changecube.NewHistory(fs, sparse),
	})
	if err != nil {
		t.Fatal(err)
	}
	valSpan := timeline.NewSpan(0, 365)
	th, err := TrainThreshold(hs, valSpan, timeline.StandardSizes, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// Daily field: predicted at every size.
	for _, size := range timeline.StandardSizes {
		w := timeline.Window{Span: timeline.NewSpan(400, 400+timeline.Day(size))}
		got := th.Predict(predict.NewContext(hs, fd, w))
		if !got {
			t.Errorf("daily field not predicted at size %d", size)
		}
	}
	// Sparse field: not at 1-day (10% of windows) or 7-day (70%), yes at
	// 30-day (100%) and 365-day (100%).
	for size, want := range map[int]bool{1: false, 7: false, 30: true, 365: true} {
		w := timeline.Window{Span: timeline.NewSpan(400, 400+timeline.Day(size))}
		if got := th.Predict(predict.NewContext(hs, fs, w)); got != want {
			t.Errorf("sparse field at size %d = %v, want %v", size, got, want)
		}
	}
	if len(th.always[1]) != 1 || len(th.always[30]) != 2 {
		t.Fatalf("always-predicted fields: 1d=%d 30d=%d", len(th.always[1]), len(th.always[30]))
	}
}

func TestThresholdUnknownSizeNeverPredicts(t *testing.T) {
	hs, f := singleFieldSet(t, 1, 2, 3, 4, 5)
	th, err := TrainThreshold(hs, timeline.NewSpan(0, 10), []int{1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w := timeline.Window{Span: timeline.NewSpan(20, 27)} // size 7, untrained
	if th.Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("untrained size predicted")
	}
}

func TestThresholdRejectsBadFraction(t *testing.T) {
	hs, _ := singleFieldSet(t, 1, 2)
	for _, fr := range []float64{0, -1, 1.5} {
		if _, err := TrainThreshold(hs, timeline.NewSpan(0, 10), []int{1}, fr); err == nil {
			t.Errorf("fraction %v accepted", fr)
		}
	}
}

func TestNames(t *testing.T) {
	if (Mean{}).Name() != "mean baseline" {
		t.Fatal("mean name wrong")
	}
	th := &Threshold{}
	if th.Name() != "threshold baseline" {
		t.Fatal("threshold name wrong")
	}
}

func TestForecastPredictsFrequentField(t *testing.T) {
	// A field changing every 2 days: λ = 0.5, weekly window probability
	// 1-e^{-3.5} ≈ 0.97 > 0.5 -> predicted.
	var days []timeline.Day
	for d := timeline.Day(0); d < 100; d += 2 {
		days = append(days, d)
	}
	hs, f := singleFieldSet(t, days...)
	w := timeline.Window{Span: timeline.NewSpan(100, 107)}
	if !(DefaultForecast()).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("frequent field not predicted for a weekly window")
	}
	// Daily window: p = 1-e^{-0.5} ≈ 0.39 < 0.5 -> not predicted.
	w1 := timeline.Window{Span: timeline.NewSpan(100, 101)}
	if (DefaultForecast()).Predict(predict.NewContext(hs, f, w1)) {
		t.Fatal("frequent field predicted for a daily window")
	}
}

func TestForecastIgnoresSparseField(t *testing.T) {
	// Mean gap ~200 days: a weekly window has p ≈ 0.034.
	hs, f := singleFieldSet(t, 0, 200, 400, 600, 800)
	w := timeline.Window{Span: timeline.NewSpan(810, 817)}
	if (DefaultForecast()).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("sparse field predicted")
	}
	// But the yearly window clears the threshold: p = 1-e^{-365/200} ≈ 0.84.
	wy := timeline.Window{Span: timeline.NewSpan(810, 810+365)}
	if !(DefaultForecast()).Predict(predict.NewContext(hs, f, wy)) {
		t.Fatal("yearly window not predicted despite p > threshold")
	}
}

func TestForecastRecencyWeighting(t *testing.T) {
	// Gaps of 100 days followed by a sustained burst of 2-day gaps: the
	// smoothing must pull the estimate toward the recent regime (after ten
	// α=0.3 steps the old 100-day gap contributes 100·0.7¹⁰ ≈ 2.8 days).
	days := []timeline.Day{0, 100, 200, 300}
	for d := timeline.Day(302); d <= 320; d += 2 {
		days = append(days, d)
	}
	hs, f := singleFieldSet(t, days...)
	w := timeline.Window{Span: timeline.NewSpan(320, 327)}
	if !(DefaultForecast()).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("recent burst not reflected in the rate")
	}
}

func TestForecastNeedsHistory(t *testing.T) {
	hs, f := singleFieldSet(t, 5)
	w := timeline.Window{Span: timeline.NewSpan(6, 100)}
	if (DefaultForecast()).Predict(predict.NewContext(hs, f, w)) {
		t.Fatal("single-change field predicted")
	}
}

func TestForecastValidate(t *testing.T) {
	bad := []Forecast{
		{Alpha: 0, Threshold: 0.5},
		{Alpha: 1.5, Threshold: 0.5},
		{Alpha: 0.3, Threshold: 0},
		{Alpha: 0.3, Threshold: 1},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad forecast config %d accepted", i)
		}
	}
	if err := DefaultForecast().Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultForecast().Name() != "forecast baseline" {
		t.Fatal("name wrong")
	}
}

package timeline

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDayOfEpoch(t *testing.T) {
	if d := DayOf(time.Unix(0, 0)); d != 0 {
		t.Fatalf("epoch day = %d, want 0", d)
	}
	if d := DayOf(time.Unix(secondsPerDay-1, 0)); d != 0 {
		t.Fatalf("end of epoch day = %d, want 0", d)
	}
	if d := DayOf(time.Unix(secondsPerDay, 0)); d != 1 {
		t.Fatalf("day after epoch = %d, want 1", d)
	}
}

func TestDayOfPreEpoch(t *testing.T) {
	if d := DayOf(time.Unix(-1, 0)); d != -1 {
		t.Fatalf("one second before epoch: day = %d, want -1", d)
	}
	if d := DayOf(time.Unix(-secondsPerDay, 0)); d != -1 {
		t.Fatalf("exactly one day before epoch: day = %d, want -1", d)
	}
	if d := DayOf(time.Unix(-secondsPerDay-1, 0)); d != -2 {
		t.Fatalf("one day and a second before epoch: day = %d, want -2", d)
	}
}

func TestDateRoundTrip(t *testing.T) {
	cases := []struct {
		y int
		m time.Month
		d int
	}{
		{1970, time.January, 1},
		{2003, time.January, 4},   // dataset start in the paper
		{2004, time.June, 5},      // training-set start
		{2018, time.September, 1}, // test-set start
		{2019, time.September, 2}, // dataset end
		{2000, time.February, 29}, // leap day
	}
	for _, c := range cases {
		day := Date(c.y, c.m, c.d)
		back := day.Time()
		if back.Year() != c.y || back.Month() != c.m || back.Day() != c.d {
			t.Errorf("Date(%d,%v,%d) -> %v, round trip mismatch", c.y, c.m, c.d, back)
		}
	}
}

func TestDayString(t *testing.T) {
	if s := Date(2018, time.September, 1).String(); s != "2018-09-01" {
		t.Fatalf("String() = %q, want 2018-09-01", s)
	}
}

func TestDayOfUnixMatchesDayOf(t *testing.T) {
	f := func(secs int64) bool {
		secs %= 1 << 40 // keep within time.Unix's comfortable range
		return DayOfUnix(secs) == DayOf(time.Unix(secs, 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanBasics(t *testing.T) {
	s := NewSpan(10, 20)
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if !s.Contains(10) || s.Contains(20) || !s.Contains(19) || s.Contains(9) {
		t.Fatal("Contains is not half-open [10,20)")
	}
}

func TestNewSpanPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpan(5, 3) did not panic")
		}
	}()
	NewSpan(5, 3)
}

func TestSpanOverlapsSymmetric(t *testing.T) {
	f := func(a0, a1, b0, b1 int16) bool {
		a := Span{Start: Day(min16(a0, a1)), End: Day(max16(a0, a1))}
		b := Span{Start: Day(min16(b0, b1)), End: Day(max16(b0, b1))}
		shared := false
		for d := a.Start; d < a.End && !shared; d++ {
			shared = b.Contains(d)
		}
		return a.Overlaps(b) == b.Overlaps(a) && a.Overlaps(b) == shared
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min16(a, b int16) int16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}

func TestTumblingPaperCounts(t *testing.T) {
	// A 365-day evaluation split must yield the paper's window counts:
	// 365 one-day, 52 seven-day, 12 thirty-day and 1 yearly window.
	split := NewSpan(Date(2018, time.September, 1), Date(2018, time.September, 1)+365)
	want := map[int]int{1: 365, 7: 52, 30: 12, 365: 1}
	total := 0
	for _, size := range StandardSizes {
		ws := Tumbling(split, size)
		if len(ws) != want[size] {
			t.Errorf("size %d: got %d windows, want %d", size, len(ws), want[size])
		}
		total += len(ws)
	}
	if total != 430 {
		t.Errorf("total predictions per field = %d, want 430", total)
	}
}

func TestTumblingTilesExactly(t *testing.T) {
	f := func(start int16, lenRaw, sizeRaw uint8) bool {
		length := int(lenRaw)
		size := int(sizeRaw%60) + 1
		span := Span{Start: Day(start), End: Day(int(start) + length)}
		ws := Tumbling(span, size)
		if len(ws) != length/size {
			return false
		}
		for i, w := range ws {
			if w.Index != i || w.Size() != size {
				return false
			}
			if w.Start != span.Start+Day(i*size) {
				return false
			}
			if w.End > span.End {
				return false // window exceeding the split must be discarded
			}
		}
		// Consecutive windows must tile without gaps.
		for i := 1; i < len(ws); i++ {
			if ws[i].Start != ws[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTumblingPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Tumbling with size 0 did not panic")
		}
	}()
	Tumbling(NewSpan(0, 10), 0)
}

func TestWindowsPerYear(t *testing.T) {
	want := map[int]int{1: 365, 7: 52, 30: 12, 365: 1}
	for size, n := range want {
		if got := WindowsPerYear(size); got != n {
			t.Errorf("WindowsPerYear(%d) = %d, want %d", size, got, n)
		}
	}
}

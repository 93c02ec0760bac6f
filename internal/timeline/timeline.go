// Package timeline provides the calendar primitives used throughout the
// stale-data detection pipeline: days as compact integers, half-open day
// spans, and tumbling prediction windows at the granularities evaluated in
// the paper (1, 7, 30 and 365 days).
package timeline

import (
	"fmt"
	"time"
)

// Day is a calendar day encoded as the number of days since the Unix epoch
// (1970-01-01 UTC). All change timestamps are reduced to Day resolution by
// the filter pipeline, matching the paper's day-level deduplication.
type Day int32

const secondsPerDay = 24 * 60 * 60

// DayOf returns the Day containing t, interpreted in UTC.
func DayOf(t time.Time) Day {
	secs := t.Unix()
	if secs < 0 && secs%secondsPerDay != 0 {
		// Floor division for pre-epoch instants.
		return Day(secs/secondsPerDay - 1)
	}
	return Day(secs / secondsPerDay)
}

// DayOfUnix returns the Day containing the Unix timestamp secs.
func DayOfUnix(secs int64) Day {
	if secs < 0 && secs%secondsPerDay != 0 {
		return Day(secs/secondsPerDay - 1)
	}
	return Day(secs / secondsPerDay)
}

// Date returns the Day for the given UTC calendar date.
func Date(year int, month time.Month, day int) Day {
	return DayOf(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// Time returns the instant at midnight UTC starting day d.
func (d Day) Time() time.Time {
	return time.Unix(int64(d)*secondsPerDay, 0).UTC()
}

// Unix returns the Unix timestamp of midnight UTC starting day d.
func (d Day) Unix() int64 { return int64(d) * secondsPerDay }

// String formats the day as an ISO date.
func (d Day) String() string { return d.Time().Format("2006-01-02") }

// Span is a half-open day interval [Start, End).
type Span struct {
	Start Day
	End   Day
}

// NewSpan returns the span [start, end). It panics if end < start; an empty
// span (end == start) is allowed.
func NewSpan(start, end Day) Span {
	if end < start {
		panic(fmt.Sprintf("timeline: invalid span [%d, %d)", start, end))
	}
	return Span{Start: start, End: end}
}

// Len returns the number of days in the span.
func (s Span) Len() int { return int(s.End - s.Start) }

// Contains reports whether d lies inside the half-open span.
func (s Span) Contains(d Day) bool { return d >= s.Start && d < s.End }

// Overlaps reports whether the two half-open spans share at least one day.
func (s Span) Overlaps(o Span) bool { return s.Start < o.End && o.Start < s.End }

// String formats the span as "[start, end)".
func (s Span) String() string {
	return fmt.Sprintf("[%s, %s)", s.Start, s.End)
}

// Window is a tumbling prediction window: a span plus its ordinal position
// in the sequence of windows tiling an evaluation split.
type Window struct {
	Span
	// Index is the zero-based position of the window within its split
	// (e.g. week number for 7-day windows).
	Index int
}

// Size returns the window length in days.
func (w Window) Size() int { return w.Len() }

// StandardSizes are the window sizes (in days) evaluated in the paper:
// daily, weekly, monthly and yearly granularities.
var StandardSizes = []int{1, 7, 30, 365}

// Tumbling tiles span with consecutive windows of the given size, starting
// at span.Start. Windows that would exceed span.End are discarded, exactly
// as the paper discards the final incomplete 7- and 30-day windows of its
// 365-day evaluation sets. size must be positive.
func Tumbling(span Span, size int) []Window {
	if size <= 0 {
		panic(fmt.Sprintf("timeline: invalid window size %d", size))
	}
	n := span.Len() / size
	windows := make([]Window, 0, n)
	for i := 0; i < n; i++ {
		start := span.Start + Day(i*size)
		windows = append(windows, Window{
			Span:  Span{Start: start, End: start + Day(size)},
			Index: i,
		})
	}
	return windows
}

// WindowsPerYear returns how many complete windows of the given size fit in
// a 365-day split — the paper's 365×1d + 52×7d + 12×30d + 1×365d = 430
// predictions per field.
func WindowsPerYear(size int) int { return 365 / size }

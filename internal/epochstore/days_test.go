package epochstore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// TestSnapshotDaysRoundTrip: day lists written by appendDays read back
// unchanged through readDays, which consumes exactly the written bytes;
// an overlong-varint gap reads as the same days; and every damaged
// encoding is an error.
func TestSnapshotDaysRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, days []timeline.Day) {
		t.Helper()
		// Trailing bytes must be left unread, not absorbed.
		buf := append(appendDays(nil, days), 0xFF, 0x01)
		r := changecube.NewReader(buf)
		got, err := readDays(r, nil, len(days))
		if err != nil {
			t.Fatalf("%v: %v", days, err)
		}
		if !slices.Equal(got, days) {
			t.Fatalf("read %v, wrote %v", got, days)
		}
		if r.Len() != 2 {
			t.Fatalf("%v: %d bytes left unread, want 2", days, r.Len())
		}
	}

	t.Run("fixed", func(t *testing.T) {
		for _, days := range [][]timeline.Day{
			{0},
			{-7},
			{-40, -3, 0, 2},
			{5, 5 + 1<<30},
			{-1 << 30, 0, 1 << 30},
			{math.MinInt32, math.MinInt32 + 1<<30},
			{math.MaxInt32 - 1, math.MaxInt32},
		} {
			roundTrip(t, days)
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(60)
			days := make([]timeline.Day, 0, n)
			d := timeline.Day(rng.Intn(2000) - 1000)
			huge := rng.Intn(n + 1) // index of the one gap of 1<<30, if any
			for i := 0; i < n; i++ {
				days = append(days, d)
				if i == huge {
					d += 1 << 30
				} else {
					d += timeline.Day(1 + rng.Intn(400))
				}
			}
			roundTrip(t, days)
		}
	})

	t.Run("overlong gap", func(t *testing.T) {
		// The gap of 6 written in two bytes instead of one: the same days
		// as the canonical encoding, in different bytes.
		canonical := appendDays(nil, []timeline.Day{3, 9, 40})
		overlong := []byte{6, 0x86, 0x00, 31}
		for _, buf := range [][]byte{canonical, overlong} {
			r := changecube.NewReader(buf)
			got, err := readDays(r, nil, 3)
			if err != nil || !slices.Equal(got, []timeline.Day{3, 9, 40}) || r.Len() != 0 {
				t.Fatalf("% x: read %v, %v with %d bytes left", buf, got, err, r.Len())
			}
		}
	})

	varint := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	gap := func(first int64, g uint64) []byte { return binary.AppendUvarint(varint(first), g) }
	for _, tc := range []struct {
		name  string
		buf   []byte
		count int
	}{
		{"empty payload", nil, 1},
		{"truncated first day", []byte{0x80}, 1},
		{"first day out of range", varint(math.MaxInt32 + 1), 1},
		{"truncated gap", varint(3), 2},
		{"truncated gap varint", append(varint(3), 0x80), 2},
		{"zero gap", gap(3, 0), 2},
		{"gap above 1<<30", gap(3, 1<<30+1), 2},
		{"overflow", gap(math.MaxInt32-5, 6), 2},
		{"count past the payload", appendDays(nil, []timeline.Day{1, 2, 3}), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := readDays(changecube.NewReader(tc.buf), nil, tc.count); err == nil {
				t.Fatalf("% x (%d days) read as %v", tc.buf, tc.count, got)
			}
		})
	}
}

package filter

import (
	"slices"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// FieldFunnel is the per-field view of the §4 funnel: the surviving change
// days of one field plus the change count after each per-field stage. The
// live-ingestion staging cube keeps one of these per touched field and
// brings it up to date with ResumeField on append; Apply runs the same
// walk once per field of a cube, so the aggregate of all FieldFunnels
// always equals what Apply over the same changes reports.
type FieldFunnel struct {
	// Raw is the number of raw changes that entered the funnel.
	Raw int
	// AfterBotReverts counts changes surviving stage 1.
	AfterBotReverts int
	// AfterDayDedup counts day-representatives surviving stage 2.
	AfterDayDedup int
	// Days are the update days surviving stage 3 (creation/deletion
	// removal), strictly increasing. len(Days) is the stage-3 output; the
	// corpus-level MinChanges gate (stage 4) is applied by the caller.
	Days []timeline.Day

	// resume is the raw position the next ResumeField may restart the walk
	// at: the first change of the field's last day, unless a bot-revert
	// pair straddles into that day, in which case it is 0 (the from-empty
	// walk). keptBefore counts the changes before it that survive stage 1.
	// Both are functions of the change list alone, so a resumed funnel and
	// a from-empty one over the same list are equal.
	resume, keptBefore uint32
}

// FieldChanges is random access to one field's chronological raw change
// list: a []changecube.Change, or a view over a cube's packed log.
type FieldChanges interface {
	Len() int
	At(i int) changecube.Change
}

// changeList adapts a materialized change slice to FieldChanges.
type changeList []changecube.Change

func (l changeList) Len() int                   { return len(l) }
func (l changeList) At(i int) changecube.Change { return l[i] }

// ApplyField runs the per-field stages of the pipeline — bot-revert
// removal, day-level dedup, creation/deletion removal — over one field's
// chronological change list. It is ResumeField from an empty funnel. The
// corpus-level minimum-change rule (stage 4) is deliberately not applied:
// it is an eligibility decision, not a per-batch one, which is what lets
// live ingestion maintain funnels incrementally. The returned Days slice
// is freshly allocated.
func ApplyField(chs []changecube.Change, cfg Config) FieldFunnel {
	var f FieldFunnel
	ResumeField(&f, changeList(chs), 0, cfg)
	return f
}

// ResumeField brings f, the funnel of a field's earlier change list, up to
// date with chs, the field's current list, which must agree with the
// earlier one at every position before from. The walk restarts at the
// resume point f recorded when from lies after it, so appending to a
// field costs the changes of its last day plus the new ones; a change
// landing at or before the resume point takes the from-empty walk. The
// result equals ApplyField over chs.
//
// The walk is stages 1–3 of the pipeline in one pass: a change is dropped
// with its successor when the successor is a bot update restoring the
// value before it within the horizon (pairs taken greedily from the
// front), and the survivors are grouped by day, each group counting as a
// Create if it is the field's first and opens with one, a Delete if it
// closes with one, and an update day otherwise. Only days and kinds are
// read past stage 1; the day's representative value is never needed.
//
// Days grows in place when the walk only appended to it, and is
// reallocated whenever an earlier entry changed or vanished, so a Days
// slice handed out before the call never changes under its holder.
func ResumeField[C FieldChanges](f *FieldFunnel, chs C, from int, cfg Config) {
	n := chs.Len()
	w := dayWalk{}
	start, keep := int(f.resume), 0 // keep: leading f.Days entries left as they are
	if start > 0 && start < from {
		// Every change before start lies on an earlier day than chs[start]
		// and no dropped pair crosses start, so the walk's state there is
		// the old funnel minus its last day's group.
		w.kept = int(f.keptBefore)
		w.groups = f.AfterDayDedup
		if f.AfterBotReverts > w.kept {
			w.groups--
		}
		keep = len(f.Days)
		if keep > 0 && f.Days[keep-1] >= chs.At(start).Day() {
			keep--
		}
	} else {
		start = 0
	}
	var buf [8]timeline.Day
	days := buf[:0] // update days the walk closes

	horizon := int64(cfg.BotRevertHorizonDays) * 24 * 60 * 60
	resume, keptBefore, clean := start, w.kept, true
	var prev, cur, next changecube.Change
	if start < n {
		cur = chs.At(start)
	}
	if start > 0 {
		prev = chs.At(start - 1)
	}
	day := cur.Day()
	dropped := false // whether the previous change was dropped as the first of a pair
	for i := start; i < n; i++ {
		if i+1 < n {
			next = chs.At(i + 1)
		}
		if d := cur.Day(); d != day {
			day = d
			resume, keptBefore, clean = i, w.kept, !dropped
		}
		pair := !dropped && i > 0 && i+1 < n && revertsPair(prev, cur, next, horizon)
		if !pair && !dropped {
			if d, ok := w.keep(day, cur.Kind); ok {
				days = append(days, d)
			}
		}
		dropped = pair
		prev, cur = cur, next
	}
	if d, ok := w.close(); ok {
		days = append(days, d)
	}

	f.Raw, f.AfterBotReverts, f.AfterDayDedup = n, w.kept, w.groups
	f.resume, f.keptBefore = 0, 0
	if clean {
		f.resume, f.keptBefore = uint32(resume), uint32(keptBefore)
	}
	old, total := f.Days, keep+len(days)
	switch {
	case total >= len(old) && slices.Equal(old[keep:], days[:len(old)-keep]):
		f.Days = append(old, days[len(old)-keep:]...)
	case total == 0:
		f.Days = nil
	default:
		fresh := make([]timeline.Day, total)
		copy(fresh, old[:keep])
		copy(fresh[keep:], days)
		f.Days = fresh
	}
}

// revertsPair reports whether cur and its successor next form an edit and
// a direct bot revert of it: next is a bot update, within horizon seconds,
// restoring prev's value.
func revertsPair(prev, cur, next changecube.Change, horizon int64) bool {
	return next.Bot && next.Kind == changecube.Update && cur.Kind == changecube.Update &&
		next.Time-cur.Time <= horizon && next.Value == prev.Value
}

// dayWalk groups a field's stage-1 survivors by day: the stage-2 and
// stage-3 half of ResumeField.
type dayWalk struct {
	kept, groups int // survivors and closed day groups so far

	open   bool // a group is open
	day    timeline.Day
	create bool // the open group is the field's first and opened with a Create
	last   changecube.ChangeKind
}

// keep adds one surviving change of the given day and kind. When that
// closes the open group, it returns the group's day if it is an update day.
func (w *dayWalk) keep(day timeline.Day, kind changecube.ChangeKind) (timeline.Day, bool) {
	w.kept++
	if w.open && day == w.day {
		w.last = kind
		return 0, false
	}
	closed, update := w.close()
	w.open, w.day, w.last = true, day, kind
	w.create = w.groups == 0 && kind == changecube.Create
	return closed, update
}

// close ends the open group, returning its day if it is an update day.
func (w *dayWalk) close() (timeline.Day, bool) {
	if !w.open {
		return 0, false
	}
	w.open = false
	w.groups++
	return w.day, w.last != changecube.Delete && !w.create
}

package ingest

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
)

// smallCube generates the shared test corpus.
func smallCube(t *testing.T) *changecube.Cube {
	t.Helper()
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// inOut strips a funnel report to the per-stage (In, Out) pairs — the part
// that must match exactly between incremental and batch filtering
// (durations never will).
func inOut(s filter.Stats) [][2]int {
	out := make([][2]int, len(s.Stages))
	for i, st := range s.Stages {
		out[i] = [2]int{st.In, st.Out}
	}
	return out
}

// fieldsOf strips a HistorySet to its (field, days) content.
func fieldsOf(hs *changecube.HistorySet) []changecube.History {
	return hs.Histories()
}

// TestStagingMatchesBatchFilter is the incremental-filter equivalence
// check: streaming a corpus through Append in arbitrary batch sizes must
// produce exactly the histories and funnel counts a batch filter.Apply
// over the same cube reports.
func TestStagingMatchesBatchFilter(t *testing.T) {
	cube := smallCube(t)
	events := CubeEvents(cube)
	cfg := filter.Default()

	st, err := NewStaging(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < len(events); {
		n := 1 + rng.Intn(400)
		if i+n > len(events) {
			n = len(events) - i
		}
		if _, err := st.Append(events[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}

	hs, stats, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	batchHS, batchStats, err := filter.Apply(hs.Cube(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inOut(stats), inOut(batchStats); !reflect.DeepEqual(got, want) {
		t.Fatalf("funnel mismatch:\nincremental %v\nbatch       %v", got, want)
	}
	if got, want := fieldsOf(hs), fieldsOf(batchHS); !reflect.DeepEqual(got, want) {
		t.Fatalf("history mismatch: %d incremental vs %d batch fields", len(got), len(want))
	}
	if hs.Cube().NumChanges() != cube.NumChanges() {
		t.Fatalf("staged %d changes, corpus has %d", hs.Cube().NumChanges(), cube.NumChanges())
	}
}

// TestStagingWarmStartMatchesStream: seeding a Staging from an existing
// cube must be indistinguishable from streaming that cube event by event.
func TestStagingWarmStartMatchesStream(t *testing.T) {
	cube := smallCube(t)
	cfg := filter.Default()

	warm, err := NewStagingFromCube(cube, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewStaging(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Append(CubeEvents(cube)); err != nil {
		t.Fatal(err)
	}

	warmHS, warmStats, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	coldHS, coldStats, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inOut(warmStats), inOut(coldStats)) {
		t.Fatalf("funnel mismatch:\nwarm %v\ncold %v", inOut(warmStats), inOut(coldStats))
	}
	if len(fieldsOf(warmHS)) != len(fieldsOf(coldHS)) {
		t.Fatalf("field count mismatch: warm %d, cold %d", warmHS.Len(), coldHS.Len())
	}
	// Entity numbering can differ (generator order vs first-sight order),
	// so compare day content keyed by names rather than raw FieldKeys.
	type namedField struct{ page, template, property string }
	days := func(hs *changecube.HistorySet) map[namedField]int {
		c := hs.Cube()
		m := make(map[namedField]int)
		for _, h := range hs.Histories() {
			info := c.Entity(h.Field.Entity)
			k := namedField{
				page:     c.Pages.Name(int32(info.Page)),
				template: c.Templates.Name(int32(info.Template)),
				property: c.Properties.Name(int32(h.Field.Property)),
			}
			m[k] += h.Len()
		}
		return m
	}
	if got, want := days(coldHS), days(warmHS); !reflect.DeepEqual(got, want) {
		t.Fatal("per-field day counts differ between warm start and stream replay")
	}
}

// TestStagingWarmStartDoesNotMutateCube: the seed cube must stay frozen
// while the staging copy grows — the serving detector keeps reading it.
func TestStagingWarmStartDoesNotMutateCube(t *testing.T) {
	cube := smallCube(t)
	before := cube.NumChanges()
	st, err := NewStagingFromCube(cube, filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{
		Time: cube.Span().End.Unix() + 3600, Page: "Fresh page", Template: "fresh template",
		Property: "prop", Value: "v", Kind: changecube.Update,
	}
	if _, err := st.Append([]Event{ev}); err != nil {
		t.Fatal(err)
	}
	if cube.NumChanges() != before {
		t.Fatalf("seed cube grew from %d to %d changes", before, cube.NumChanges())
	}
	if st.Stats().Changes != before+1 {
		t.Fatalf("staging has %d changes, want %d", st.Stats().Changes, before+1)
	}
}

// TestStagingAppendAllOrNothing: one invalid event fails the whole batch
// with nothing staged.
func TestStagingAppendAllOrNothing(t *testing.T) {
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	good := Event{Time: 1000, Page: "p", Template: "t", Property: "x", Kind: changecube.Update}
	bad := Event{Time: 1000, Page: "", Template: "t", Property: "x", Kind: changecube.Update}
	if _, err := st.Append([]Event{good, bad}); err == nil {
		t.Fatal("batch with invalid event accepted")
	}
	if got := st.Stats().Changes; got != 0 {
		t.Fatalf("partial batch staged: %d changes", got)
	}
	if _, err := st.Append([]Event{good}); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Changes; got != 1 {
		t.Fatalf("changes = %d, want 1", got)
	}
}

// TestStagingRejectsBadConfig: cold and warm starts refuse a filter
// configuration Apply refuses.
func TestStagingRejectsBadConfig(t *testing.T) {
	for _, cfg := range []filter.Config{
		{MinChanges: 0, BotRevertHorizonDays: 2},
		{MinChanges: 5, BotRevertHorizonDays: -1},
	} {
		if _, err := NewStaging(cfg); err == nil {
			t.Errorf("NewStaging accepted %+v", cfg)
		}
		if _, err := NewStagingFromCube(changecube.New(), cfg); err == nil {
			t.Errorf("NewStagingFromCube accepted %+v", cfg)
		}
	}
}

// TestSnapshotIsolation: a snapshot must be immune to later appends.
func TestSnapshotIsolation(t *testing.T) {
	cube := smallCube(t)
	st, err := NewStagingFromCube(cube, filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	hs, _, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	changesBefore := hs.Cube().NumChanges()
	daysBefore := make([]int, hs.Len())
	for i, h := range hs.Histories() {
		daysBefore[i] = h.Len()
	}

	// Hammer every known field with fresh changes.
	base := cube.Span().End.Unix()
	var evs []Event
	for i, ev := range CubeEvents(cube)[:200] {
		ev.Time = base + int64(i+1)*3600
		evs = append(evs, ev)
	}
	if _, err := st.Append(evs); err != nil {
		t.Fatal(err)
	}

	if hs.Cube().NumChanges() != changesBefore {
		t.Fatalf("snapshot cube grew: %d -> %d", changesBefore, hs.Cube().NumChanges())
	}
	for i, h := range hs.Histories() {
		if h.Len() != daysBefore[i] {
			t.Fatalf("snapshot history %d grew: %d -> %d days", i, daysBefore[i], h.Len())
		}
	}
}

// TestStagingOutOfOrderAppend: late-arriving events must land in
// chronological position, not at the end.
func TestStagingOutOfOrderAppend(t *testing.T) {
	st, err := NewStaging(filter.Config{MinChanges: 1, BotRevertHorizonDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(day int64) Event {
		return Event{Time: day * 86400, Page: "p", Template: "t", Property: "x",
			Value: "v", Kind: changecube.Update}
	}
	if _, err := st.Append([]Event{mk(10), mk(5), mk(20), mk(15)}); err != nil {
		t.Fatal(err)
	}
	hs, _, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := hs.Histories()[0]
	days := h.Days()
	for i := 1; i < len(days); i++ {
		if days[i] <= days[i-1] {
			t.Fatalf("days not increasing: %v", days)
		}
	}
	if len(days) != 4 {
		t.Fatalf("got %d days, want 4", len(days))
	}
}

// TestStagingStatsSpan: the staged span must cover the filtered days.
func TestStagingStatsSpan(t *testing.T) {
	cube := smallCube(t)
	st, err := NewStagingFromCube(cube, filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.SpanStart == "" || s.SpanEnd == "" {
		t.Fatalf("span missing from stats: %+v", s)
	}
	if s.EligibleFields == 0 || s.FilteredChanges < s.EligibleFields {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.Changes != cube.NumChanges() {
		t.Fatalf("changes = %d, want %d", s.Changes, cube.NumChanges())
	}
}

// TestStagingResumedFunnelsMatchApplyField: every field's staged funnel,
// resumed from the first position each batch changed, must equal
// filter.ApplyField over the field's whole staged list after every batch —
// with multi-change days, creates and deletes, bot reverts on the edge of
// the horizon and events arriving after ones they precede.
func TestStagingResumedFunnelsMatchApplyField(t *testing.T) {
	cfg := filter.Default()
	const day = 86400
	horizon := int64(cfg.BotRevertHorizonDays) * day
	rng := rand.New(rand.NewSource(5))
	var events []Event
	for f := 0; f < 40; f++ {
		prop := string(rune('a' + f%8))
		page := string(rune('A' + f/8))
		t0, prev, val := int64(rng.Intn(5))*day, "", ""
		for n := 2 + rng.Intn(30); n > 0; n-- {
			t0 += []int64{day, 3 * day, 3600, 60}[rng.Intn(4)]
			prev, val = val, string(rune('0'+rng.Intn(3)))
			kind := []changecube.ChangeKind{changecube.Update, changecube.Update, changecube.Update, changecube.Create, changecube.Delete}[rng.Intn(5)]
			events = append(events, Event{Time: t0, Page: page, Template: "t", Property: prop, Value: val, Kind: kind})
			if kind == changecube.Update && rng.Intn(3) == 0 {
				t0 += horizon + int64(rng.Intn(3)-1)
				events = append(events, Event{Time: t0, Page: page, Template: "t", Property: prop, Value: prev, Kind: changecube.Update, Bot: true})
				val = prev
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	for k := 0; k < len(events)/10; k++ { // a tenth of the feed arrives late
		i := rng.Intn(len(events))
		j := i + rng.Intn(len(events)-i)
		ev := events[i]
		events = slices.Insert(slices.Delete(events, i, i+1), j, ev)
	}

	st, err := NewStaging(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for len(events) > 0 {
		batch := events[:min(1+rng.Intn(30), len(events))]
		events = events[len(batch):]
		if _, err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
		for key, buf := range st.fields {
			chs := make([]changecube.Change, len(buf.raw))
			for i, idx := range buf.raw {
				chs[i] = st.cube.ChangeAt(int(idx))
			}
			if want := filter.ApplyField(chs, cfg); !reflect.DeepEqual(buf.funnel, want) {
				t.Fatalf("field %v after %d changes:\nstaged %+v\nfresh  %+v", key, len(chs), buf.funnel, want)
			}
		}
	}
}

// TestStagingFromEpochStartsLazy: staging built from an epoch detector
// whose persisted funnel state checks out walks no field until a batch
// touches it, and hands the detector to the first Manager built over it;
// one whose counts do not add up is walked up front and seeds nothing.
func TestStagingFromEpochStartsLazy(t *testing.T) {
	cube := smallCube(t)
	cfg := core.DefaultConfig()
	warm, err := NewStagingFromCube(cube, cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	hs, stats, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStagingFromEpoch(det, cfg.Filter, nil, SourcePosition{})
	if err != nil {
		t.Fatal(err)
	}
	lazy := func() int {
		n := 0
		for _, buf := range st.fields {
			if buf.lazy() {
				n++
			}
		}
		return n
	}
	if lazy() != len(st.fields) || st.seed != det {
		t.Fatalf("%d of %d fields lazy, seeded %v", lazy(), len(st.fields), st.seed != nil)
	}
	var key changecube.FieldKey
	for key = range st.fields {
		break
	}
	info := cube.Entity(key.Entity)
	ev := Event{
		Time:     cube.TimeAt(cube.NumChanges() - 1),
		Page:     cube.Pages.Name(int32(info.Page)),
		Template: cube.Templates.Name(int32(info.Template)),
		Infobox:  warm.SnapshotCheckpoint().Ordinals[key.Entity],
		Property: cube.Properties.Name(int32(key.Property)),
		Value:    "touched",
	}
	if _, err := st.Append([]Event{ev}); err != nil {
		t.Fatal(err)
	}
	if lazy() != len(st.fields)-1 || st.fields[key].lazy() {
		t.Fatalf("after one touched field: %d of %d lazy, touched one lazy %v", lazy(), len(st.fields), st.fields[key].lazy())
	}
	if m := NewManager(nil, st, nil, Config{Train: cfg}); m.lastGood != det || st.seed != nil {
		t.Fatal("the manager did not take the epoch detector as its previous training")
	}

	model, err := det.MarshalModel()
	if err != nil {
		t.Fatal(err)
	}
	bad := filter.Stats{Stages: slices.Clone(stats.Stages)}
	bad.Stages[3].Out++
	tampered, err := core.LoadModelBytes(hs, bad, cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	st, err = NewStagingFromEpoch(tampered, cfg.Filter, nil, SourcePosition{})
	if err != nil {
		t.Fatal(err)
	}
	if lazy() != 0 || st.seed != nil {
		t.Fatalf("tampered epoch: %d fields lazy, seeded %v", lazy(), st.seed != nil)
	}
}

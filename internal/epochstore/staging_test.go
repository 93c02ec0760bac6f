package epochstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/timeline"
)

// bootEpoch streams cube through staging up to its last tail day batches,
// trains, persists the epoch (its filter stats passed through tamper when
// that is set) and loads it back: what a restart after downtime boots
// from. It returns the loaded epoch and the feed positioned at its
// checkpoint.
func bootEpoch(t *testing.T, cube *changecube.Cube, cfg core.Config, tail int, tamper func(filter.Stats) filter.Stats) (*LoadResult, *ingest.Stream) {
	t.Helper()
	st, err := ingest.NewStaging(cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	src := ingest.NewStream(cube)
	for src.Remaining() > tail {
		events, err := src.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendAt(events, src.Position()); err != nil {
			t.Fatal(err)
		}
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tamper != nil {
		model, err := det.MarshalModel()
		if err != nil {
			t.Fatal(err)
		}
		if det, err = core.LoadModelBytes(hs, tamper(stats), cfg, model); err != nil {
			t.Fatal(err)
		}
	}
	store := openStore(t, t.TempDir(), 1)
	if _, err := store.Snapshot(context.Background(), det, st.SnapshotCheckpoint()); err != nil {
		t.Fatal(err)
	}
	res, err := store.LoadLatest(context.Background(), cfg)
	if err != nil || res.Outcome != "latest" {
		t.Fatalf("load: %v (outcome %q, errors %v)", err, res.Outcome, res.Errors)
	}
	resumed := ingest.NewStream(cube)
	if err := resumed.Seek(res.Checkpoint); err != nil {
		t.Fatal(err)
	}
	return res, resumed
}

// sameSnapshots fails unless two stagings snapshot to the same histories,
// funnel stats, checkpoint and trained model.
func sameSnapshots(t *testing.T, step string, got, want *ingest.Staging, cfg core.Config) {
	t.Helper()
	hsG, statsG, errG := got.Snapshot()
	hsW, statsW, errW := want.Snapshot()
	if (errG == nil) != (errW == nil) {
		t.Fatalf("%s: snapshot errors %v, want %v", step, errG, errW)
	}
	if !reflect.DeepEqual(statsG, statsW) {
		t.Fatalf("%s: funnel stats\n got  %v\n want %v", step, statsG, statsW)
	}
	if !reflect.DeepEqual(got.SnapshotCheckpoint(), want.SnapshotCheckpoint()) {
		t.Fatalf("%s: snapshot checkpoints differ", step)
	}
	if errW != nil {
		return
	}
	if hsG.Len() != hsW.Len() {
		t.Fatalf("%s: %d histories, want %d", step, hsG.Len(), hsW.Len())
	}
	for i, h := range hsW.Histories() {
		g := hsG.Histories()[i]
		if g.Field != h.Field || !slices.Equal(g.Days(), h.Days()) {
			t.Fatalf("%s: history %d is %v %v, want %v %v", step, i, g.Field, g.Days(), h.Field, h.Days())
		}
	}
	detG, errG := core.TrainFiltered(hsG, statsG, cfg)
	detW, errW := core.TrainFiltered(hsW, statsW, cfg)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("%s: training errors %v, want %v", step, errG, errW)
	}
	if errW != nil {
		return
	}
	mG, _ := detG.MarshalModel()
	mW, _ := detW.MarshalModel()
	if !bytes.Equal(mG, mW) {
		t.Fatalf("%s: trained models differ", step)
	}
}

// TestEpochStagingMatchesEager is the differential test of the lazy
// restart: staging built from a loaded epoch, which takes the persisted
// funnel state as it is and walks a field only when a batch touches it,
// must equal NewStagingFromCubeAt over the same cube — which walks every
// field up front — after every batch. The batches are the feed's missed
// days plus crafted ones: late events before and at a field's resume
// point and tying it, a bot-revert pair straddling into a field's last day, new
// entities and properties, and a field crossing MinChanges; most fields
// are never touched. A second lazy staging reads Stats mid-stream, which
// walks every field still lazy.
//
// The lazy stagings' funnels share the booted histories' day slices, which
// the snapshot decoder carves out of one arena. After every batch the
// booted detector's histories must still equal a copy taken at load; the
// last three batches append a day to a field whose successor in the arena
// no batch touches, truncate it again, and re-grow it.
func TestEpochStagingMatchesEager(t *testing.T) {
	cfg := core.DefaultConfig()
	cube, _, err := dataset.Generate(tinyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	res, src := bootEpoch(t, cube, cfg, 12, nil)
	booted := res.Detector.Histories().Histories()
	atLoad := make([][]timeline.Day, len(booted))
	for i, h := range booted {
		atLoad[i] = slices.Clone(h.Days())
	}
	lazy, err := res.Staging()
	if err != nil {
		t.Fatal(err)
	}
	eager, err := ingest.NewStagingFromCubeAt(res.Detector.Histories().Cube(), cfg.Filter, res.ordinals, res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	statsRead, err := ingest.NewStagingFromEpoch(res.Detector, cfg.Filter, res.ordinals, res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	sameSnapshots(t, "boot", lazy, eager, cfg)

	batches := craftedBatches(t, res, cfg.Filter)
	for {
		events, err := src.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, events)
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	batches = append(batches, neighbourBatches(t, res, batches)...)
	for i, batch := range batches {
		for _, st := range []*ingest.Staging{lazy, eager, statsRead} {
			if _, err := st.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		if i == 1 {
			statsRead.Stats()
		}
		step := fmt.Sprintf("batch %d", i)
		for j, h := range booted {
			if !slices.Equal(h.Days(), atLoad[j]) {
				t.Fatalf("%s: booted history %v is %v, loaded as %v", step, h.Field, h.Days(), atLoad[j])
			}
		}
		sameSnapshots(t, step, lazy, eager, cfg)
		sameSnapshots(t, step+" (stats read)", statsRead, eager, cfg)
	}
	if got, want := lazy.Stats(), eager.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	if got, want := statsRead.Stats(), eager.Stats(); got != want {
		t.Fatalf("Stats() after a mid-stream read = %+v, want %+v", got, want)
	}
}

// craftedBatches builds the hand-made batches of TestEpochStagingMatchesEager
// over the loaded epoch's fields.
func craftedBatches(t *testing.T, res *LoadResult, cfg filter.Config) [][]ingest.Event {
	t.Helper()
	cube := res.Detector.Histories().Cube().Clone()
	keys, groups := cube.FieldIndexes()
	event := func(k changecube.FieldKey, time int64, value string, bot bool) ingest.Event {
		info := cube.Entity(k.Entity)
		return ingest.Event{
			Time:     time,
			Page:     cube.Pages.Name(int32(info.Page)),
			Template: cube.Templates.Name(int32(info.Template)),
			Infobox:  res.ordinals[k.Entity],
			Property: cube.Properties.Name(int32(k.Property)),
			Value:    value,
			Kind:     changecube.Update,
			Bot:      bot,
		}
	}
	const day = 86400
	var late, atResume, tie, straddle, crossing []ingest.Event
	for i, k := range keys {
		l := cube.FieldLog(groups[i])
		n := l.Len()
		last := l.At(n - 1)
		first := n - 1 // first change of the field's last day
		for first > 0 && l.At(first-1).Day() == last.Day() {
			first--
		}
		days := filter.ApplyField(changesOf(l), cfg).Days
		switch {
		case late == nil && n >= 4 && first >= 2:
			late = []ingest.Event{event(k, l.At(1).Time+1, "late", false)}
		case atResume == nil && n >= 4 && first >= 2 && l.At(first).Time-1 > l.At(first-1).Time:
			// Lands exactly at the resume point: the from-empty walk.
			atResume = []ingest.Event{event(k, l.At(first).Time-1, "at resume", false)}
		case tie == nil && n >= 4 && first >= 2:
			// Ties the last day's first change, so it lands after it.
			tie = []ingest.Event{event(k, l.At(first).Time, "tie", false)}
		case straddle == nil && n >= 3 && first >= 1 && l.At(first).Time%day >= 3600:
			// An edit late on the day before the last day and a bot
			// revert early on the last day, restoring the value before
			// the edit: the pair straddles into the last day.
			before := l.At(first - 1)
			edit := l.At(first).Time - l.At(first).Time%day - 1800
			if edit > before.Time {
				straddle = []ingest.Event{
					event(k, edit, "vandal", false),
					event(k, edit+3600, before.Value, true),
				}
			}
		case crossing == nil && len(days) == cfg.MinChanges-1:
			crossing = []ingest.Event{event(k, last.Time+2*day, "crossing", false)}
		}
	}
	if late == nil || atResume == nil || tie == nil || straddle == nil || crossing == nil {
		t.Fatalf("corpus lacks a field for a crafted batch: late %v, at resume %v, tie %v, straddle %v, crossing %v",
			late, atResume, tie, straddle, crossing)
	}
	some := event(keys[0], cube.TimeAt(cube.NumChanges()-1), "x", false)
	newEntity := some
	newEntity.Page, newEntity.Infobox = "A page first seen after the restart", 0
	newProperty := some
	newProperty.Property = "property first seen after the restart"
	return [][]ingest.Event{late, atResume, tie, straddle, crossing, {newEntity, newProperty}}
}

// neighbourBatches builds three batches for a booted field that no batch
// in others touches and whose successor in field order (the next history
// in the decoder's arena) none touches either: one appends a day after the
// field's last change, one bot-reverts that change so the day vanishes
// again, and one appends a later day.
func neighbourBatches(t *testing.T, res *LoadResult, others [][]ingest.Event) [][]ingest.Event {
	t.Helper()
	cube := res.Detector.Histories().Cube().Clone()
	type fieldName struct {
		page, template, property string
		infobox                  int
	}
	name := func(k changecube.FieldKey) fieldName {
		info := cube.Entity(k.Entity)
		return fieldName{
			page:     cube.Pages.Name(int32(info.Page)),
			template: cube.Templates.Name(int32(info.Template)),
			property: cube.Properties.Name(int32(k.Property)),
			infobox:  res.ordinals[k.Entity],
		}
	}
	touched := make(map[fieldName]bool)
	for _, batch := range others {
		for _, ev := range batch {
			touched[fieldName{ev.Page, ev.Template, ev.Property, ev.Infobox}] = true
		}
	}
	keys, groups := cube.FieldIndexes()
	logs := make(map[changecube.FieldKey]changecube.FieldLog, len(keys))
	for i, k := range keys {
		logs[k] = cube.FieldLog(groups[i])
	}
	hists := res.Detector.Histories().Histories()
	for i := 0; i+1 < len(hists); i++ {
		k := hists[i].Field
		l := logs[k]
		last := l.At(l.Len() - 1)
		if touched[name(k)] || touched[name(hists[i+1].Field)] || last.Kind != changecube.Update {
			continue
		}
		n := name(k)
		event := func(time int64, value string, bot bool) []ingest.Event {
			return []ingest.Event{{
				Time: time, Page: n.page, Template: n.template, Infobox: n.infobox,
				Property: n.property, Value: value, Kind: changecube.Update, Bot: bot,
			}}
		}
		const day = 86400
		return [][]ingest.Event{
			event(last.Time+2*day, "appended", false),
			event(last.Time+2*day+60, last.Value, true),
			event(last.Time+4*day, "re-grown", false),
		}
	}
	t.Fatal("corpus lacks two neighbouring booted fields no batch touches")
	return nil
}

// changesOf materializes a field's change list.
func changesOf(l changecube.FieldLog) []changecube.Change {
	out := make([]changecube.Change, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out
}

// TestEpochStagingRejectsTamperedFunnel: an epoch whose persisted funnel
// counts do not add up against its cube and histories is not trusted.
// Its staging walks every field up front, so it reports the true counts,
// and no retrain is seeded from it.
func TestEpochStagingRejectsTamperedFunnel(t *testing.T) {
	cfg := core.DefaultConfig()
	cube, _, err := dataset.Generate(tinyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(s filter.Stats) filter.Stats
	}{
		{"raw count", func(s filter.Stats) filter.Stats {
			s.Stages[0].In++
			return s
		}},
		{"gate output", func(s filter.Stats) filter.Stats {
			s.Stages[3].Out--
			return s
		}},
		{"broken chain", func(s filter.Stats) filter.Stats {
			s.Stages[1].In++
			return s
		}},
		{"stage names", func(s filter.Stats) filter.Stats {
			s.Stages[2].Name = "renamed"
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tampered := func(s filter.Stats) filter.Stats {
				s.Stages = slices.Clone(s.Stages)
				return tc.tamper(s)
			}
			res, src := bootEpoch(t, cube, cfg, 12, tampered)
			st, err := res.Staging()
			if err != nil {
				t.Fatal(err)
			}
			eager, err := ingest.NewStagingFromCubeAt(res.Detector.Histories().Cube(), cfg.Filter, res.ordinals, res.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			sameSnapshots(t, "boot", st, eager, cfg)

			m := ingest.NewManager(src, st, nil, ingest.Config{Train: cfg, Incremental: true})
			if err := m.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if s := m.Stats(); s.Retrains != 1 || s.RetrainsFull != 1 {
				t.Fatalf("first retrain after a tampered epoch: %d retrains, %d full; want a cold one", s.Retrains, s.RetrainsFull)
			}
		})
	}
}

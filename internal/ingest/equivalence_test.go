package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/timeline"
)

// TestStreamBatchEquivalence is the subsystem's core guarantee: a corpus
// streamed through the online path — day-batched feed, incremental
// staging filter, snapshot, TrainFiltered — must yield a detector whose
// DetectStale output is bit-identical to batch core.Train over the same
// cube, at every probed horizon. The incremental subtest runs the same
// contract through the rule-reuse retraining path.
func TestStreamBatchEquivalence(t *testing.T) {
	for _, inc := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", inc), func(t *testing.T) {
			cube, truth, err := dataset.Generate(dataset.Small())
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()

			st, err := NewStaging(cfg.Filter)
			if err != nil {
				t.Fatal(err)
			}
			rec := &swapRecorder{}
			m := NewManager(NewStream(cube), st, rec.swap, Config{Train: cfg, Incremental: inc, FullRebuildEvery: 32})
			if err := m.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			streamed := rec.last()
			if streamed == nil {
				t.Fatal("stream produced no detector")
			}

			// The batch reference trains over the staging cube itself (identical
			// entity numbering by construction); its change content equals the
			// original corpus, only reassembled from events.
			batch, err := core.Train(streamed.Histories().Cube(), cfg)
			if err != nil {
				t.Fatal(err)
			}

			if streamed.Histories().Len() != batch.Histories().Len() {
				t.Fatalf("field count: streamed %d, batch %d",
					streamed.Histories().Len(), batch.Histories().Len())
			}
			if !reflect.DeepEqual(streamed.Histories().Histories(), batch.Histories().Histories()) {
				t.Fatal("filtered histories differ between stream and batch")
			}
			if !reflect.DeepEqual(streamed.FieldCorrelations().Rules(), batch.FieldCorrelations().Rules()) {
				t.Fatal("correlation rules differ between stream and batch")
			}

			end := streamed.Histories().Span().End
			probes := []struct {
				asOf   timeline.Day
				window int
			}{
				{end, 7},
				{end, 30},
				{end - 100, 7},
				{truth.CaseStudy.MissedDays[0] + 2, 3},
			}
			for _, p := range probes {
				got := streamed.DetectStale(p.asOf, p.window)
				want := batch.DetectStale(p.asOf, p.window)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("DetectStale(%v, %d): streamed %d alerts, batch %d; outputs differ",
						p.asOf, p.window, len(got), len(want))
				}
			}

			// Resume contract: interrupt the feed halfway, "restart" from
			// the mid-run snapshot + checkpoint, and replay only the tail.
			// The resumed run must land on the same final state as the
			// uninterrupted one — same change count (nothing lost, nothing
			// double-applied) and bit-identical detection.
			mid, midCP := interruptedRun(t, cube, Config{Train: cfg, Incremental: inc, FullRebuildEvery: 32})
			stR, err := NewStagingFromCubeAt(mid.Histories().Cube(), cfg.Filter, midCP.Ordinals, midCP.Pos)
			if err != nil {
				t.Fatal(err)
			}
			srcR := NewStream(cube)
			if err := srcR.Seek(midCP.Pos); err != nil {
				t.Fatal(err)
			}
			recR := &swapRecorder{}
			mR := NewManager(srcR, stR, recR.swap, Config{Train: cfg, Incremental: inc, FullRebuildEvery: 32})
			if err := mR.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			resumed := recR.last()
			if resumed == nil {
				t.Fatal("resumed run produced no detector")
			}
			if got, want := resumed.Histories().Cube().NumChanges(), streamed.Histories().Cube().NumChanges(); got != want {
				t.Fatalf("resumed run holds %d changes, uninterrupted %d (events lost or double-applied)", got, want)
			}
			if !reflect.DeepEqual(resumed.Histories().Histories(), streamed.Histories().Histories()) {
				t.Fatal("filtered histories differ between resumed and uninterrupted runs")
			}
			for _, p := range probes {
				if !reflect.DeepEqual(resumed.DetectStale(p.asOf, p.window), streamed.DetectStale(p.asOf, p.window)) {
					t.Fatalf("DetectStale(%v, %d) differs between resumed and uninterrupted runs", p.asOf, p.window)
				}
			}
		})
	}
}

// interruptedRun streams half the corpus, retrains, and returns the
// mid-run detector with the checkpoint captured by its training snapshot —
// the state a crash-and-restore hands a fresh process.
func interruptedRun(t *testing.T, cube *changecube.Cube, cfg Config) (*core.Detector, Checkpoint) {
	t.Helper()
	st, err := NewStaging(cfg.Train.Filter)
	if err != nil {
		t.Fatal(err)
	}
	rec := &swapRecorder{}
	m := NewManager(nil, st, rec.swap, cfg)
	src := NewStream(cube)
	half := src.Remaining() / 2
	ctx := context.Background()
	for i := 0; i < half; i++ {
		events, err := src.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendAt(events, src.Position()); err != nil {
			t.Fatal(err)
		}
	}
	m.retrain("count")
	det := rec.last()
	if det == nil {
		t.Fatalf("mid-run retrain at batch %d produced no detector: %s", half, m.Stats().LastError)
	}
	return det, st.SnapshotCheckpoint()
}

// TestIncrementalRetrainEquivalence drives two managers over the identical
// batch sequence with retrains forced at the same points — one cold, one
// incremental — and asserts bit-identical models of all five stages and
// DetectStale output after every successful retrain. Early retrains fail
// on both sides ("span too short") until enough history streamed in;
// later ones must reuse pages.
func TestIncrementalRetrainEquivalence(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()

	newSide := func(inc Config) (*Staging, *swapRecorder, *Manager) {
		st, err := NewStaging(cfg.Filter)
		if err != nil {
			t.Fatal(err)
		}
		rec := &swapRecorder{}
		return st, rec, NewManager(nil, st, rec.swap, inc)
	}
	stCold, recCold, mCold := newSide(Config{Train: cfg})
	stInc, recInc, mInc := newSide(Config{Train: cfg, Incremental: true, FullRebuildEvery: 5})

	compare := func(step int) {
		t.Helper()
		if recCold.count() != recInc.count() {
			t.Fatalf("step %d: cold side swapped %d detectors, incremental side %d",
				step, recCold.count(), recInc.count())
		}
		cold, inc := recCold.last(), recInc.last()
		if cold == nil {
			return // neither side has trained successfully yet
		}
		if !reflect.DeepEqual(cold.FieldCorrelations().Rules(), inc.FieldCorrelations().Rules()) {
			t.Fatalf("step %d: correlation rules diverged (incremental stats %+v)",
				step, inc.CorrelationRetrain())
		}
		if !reflect.DeepEqual(cold.AssociationRules().Rules(), inc.AssociationRules().Rules()) {
			t.Fatalf("step %d: association rules diverged (incremental stats %+v)",
				step, inc.AssocRetrain())
		}
		if !reflect.DeepEqual(cold.Seasonal(), inc.Seasonal()) {
			t.Fatalf("step %d: seasonal predictors diverged (incremental stats %+v)",
				step, inc.SeasonalRetrain())
		}
		if !reflect.DeepEqual(cold.FamilyCorrelations().Rules(), inc.FamilyCorrelations().Rules()) {
			t.Fatalf("step %d: family rules diverged (incremental stats %+v)",
				step, inc.FamilyRetrain())
		}
		if !reflect.DeepEqual(cold.Predictors()[1], inc.Predictors()[1]) {
			t.Fatalf("step %d: threshold baselines diverged (incremental stats %+v)",
				step, inc.ThresholdRetrain())
		}
		end := cold.Histories().Span().End
		for _, window := range []int{7, 30} {
			if !reflect.DeepEqual(cold.DetectStale(end, window), inc.DetectStale(end, window)) {
				t.Fatalf("step %d: DetectStale(%v, %d) diverged", step, end, window)
			}
		}
	}

	src := NewStream(cube)
	ctx := context.Background()
	batches, step, reusedRetrains := 0, 0, 0
	for {
		events, srcErr := src.Next(ctx)
		if len(events) > 0 {
			if _, err := stCold.Append(events); err != nil {
				t.Fatal(err)
			}
			if _, err := stInc.Append(events); err != nil {
				t.Fatal(err)
			}
			batches++
			if batches%150 == 0 {
				step++
				mCold.retrain("count")
				mInc.retrain("count")
				compare(step)
				if s := mInc.Stats(); s.LastRetrainPagesReused > 0 {
					reusedRetrains++
				}
			}
		}
		if errors.Is(srcErr, io.EOF) {
			break
		}
		if srcErr != nil {
			t.Fatal(srcErr)
		}
	}
	step++
	mCold.retrain("count")
	mInc.retrain("count")
	compare(step)

	s := mInc.Stats()
	if s.RetrainsIncremental == 0 {
		t.Fatalf("no retrain ran incrementally: %+v", s)
	}
	if s.RetrainsFull == 0 {
		t.Fatalf("neither the cold start nor the FullRebuildEvery=5 hatch forced a full rebuild: %+v", s)
	}
	if reusedRetrains == 0 {
		t.Fatal("incremental retrains never reused a page's rules")
	}
}

// TestRetrainSkipsTouchedButUnchangedFields: the retrain delta is what
// changed in the filtered histories, not what the feed touched. After a
// warm start and a first training, 17 fields get an event that repeats a
// plain update they already had on a day they already changed; their
// filtered days stay the same, so the next retrain must rebuild no page,
// template, family or field, and still equal a cold build.
func TestRetrainSkipsTouchedButUnchangedFields(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	st, err := NewStagingFromCube(cube, cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	rec := &swapRecorder{}
	m := NewManager(nil, st, rec.swap, Config{Train: cfg, Incremental: true})
	m.retrain("count")
	first := rec.last()
	if first == nil {
		t.Fatalf("warm-start training failed: %s", m.Stats().LastError)
	}

	// Candidates: non-bot updates of fields without bot edits (so no
	// revert pair can form), on a day the field's filtered history already
	// holds. Every 97th candidate spreads the picks over the corpus.
	changes := cube.Changes()
	events := CubeEvents(cube)
	botEdited := make(map[changecube.FieldKey]bool)
	for _, ch := range changes {
		if ch.Bot {
			botEdited[changecube.FieldKey{Entity: ch.Entity, Property: ch.Property}] = true
		}
	}
	picked := make(map[changecube.FieldKey]bool)
	var touch []Event
	candidates := 0
	for i, ch := range changes {
		key := changecube.FieldKey{Entity: ch.Entity, Property: ch.Property}
		if ch.Kind != changecube.Update || botEdited[key] || picked[key] {
			continue
		}
		h, ok := first.Histories().Get(key)
		if !ok || !h.ChangedIn(timeline.NewSpan(ch.Day(), ch.Day()+1)) {
			continue
		}
		if candidates++; candidates%97 != 0 {
			continue
		}
		picked[key] = true
		touch = append(touch, events[i])
		if len(touch) == 17 {
			break
		}
	}
	if len(touch) != 17 {
		t.Fatalf("found %d fields to re-touch, want 17", len(touch))
	}
	if _, err := st.Append(touch); err != nil {
		t.Fatal(err)
	}
	m.retrain("count")
	if rec.count() != 2 {
		t.Fatalf("retrain after the touches produced no detector: %s", m.Stats().LastError)
	}
	det := rec.last()
	if !reflect.DeepEqual(det.Histories().Histories(), first.Histories().Histories()) {
		t.Fatal("the re-touched fields' filtered days changed; the fixture must leave them as they were")
	}

	ci, ai, fi := det.CorrelationRetrain(), det.AssocRetrain(), det.FamilyRetrain()
	si, ti := det.SeasonalRetrain(), det.ThresholdRetrain()
	if ci.Full || ci.PagesTotal == 0 || ci.PagesRetrained != 0 || ci.PagesReused != ci.PagesTotal {
		t.Errorf("correlation: %+v, want every page reused", ci)
	}
	if ai.Full || ai.TemplatesTotal == 0 || ai.TemplatesRetrained != 0 || ai.TemplatesReused != ai.TemplatesTotal {
		t.Errorf("association rules: %+v, want every template reused", ai)
	}
	if fi.Full || fi.FamiliesTotal == 0 || fi.FamiliesRetrained != 0 || fi.FamiliesReused != fi.FamiliesTotal {
		t.Errorf("family correlations: %+v, want every family reused", fi)
	}
	if si.Full || si.FieldsRecomputed != 0 {
		t.Errorf("seasonal: %+v, want no field recomputed", si)
	}
	if ti.Full || ti.FieldsRecomputed != 0 {
		t.Errorf("threshold: %+v, want no field recomputed", ti)
	}

	cold, err := core.TrainFiltered(det.Histories(), det.FilterStats(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.FieldCorrelations().Rules(), det.FieldCorrelations().Rules()) {
		t.Error("correlation rules differ from a cold build")
	}
	if !reflect.DeepEqual(cold.AssociationRules().Rules(), det.AssociationRules().Rules()) {
		t.Error("association rules differ from a cold build")
	}
	if !reflect.DeepEqual(cold.Seasonal(), det.Seasonal()) {
		t.Error("seasonal predictor differs from a cold build")
	}
	if !reflect.DeepEqual(cold.FamilyCorrelations().Rules(), det.FamilyCorrelations().Rules()) {
		t.Error("family rules differ from a cold build")
	}
	end := det.Histories().Span().End
	if !reflect.DeepEqual(cold.DetectStale(end, 30), det.DetectStale(end, 30)) {
		t.Error("DetectStale differs from a cold build")
	}
}

package filter

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// TestApplyFieldMatchesApply: Apply — one ResumeField walk per field plus
// the MinChanges gate — must reproduce the four-pass reference pipeline's
// histories and per-stage counts exactly, on random cubes whose fields
// carry multi-change days, creates and deletes, and bot reverts just
// inside, on and just past the horizon, some arriving out of order.
func TestApplyFieldMatchesApply(t *testing.T) {
	var removed [4]int // changes each stage removed, over all cubes
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{MinChanges: 1 + rng.Intn(6), BotRevertHorizonDays: 1 + rng.Intn(3)}
		cube := changecube.New()
		props := make([]changecube.PropertyID, 4)
		for i := range props {
			props[i] = changecube.PropertyID(cube.Properties.Intern(string(rune('a' + i))))
		}
		for e := 0; e < 1+rng.Intn(6); e++ {
			ent := cube.AddEntityNamed("tmpl", string(rune('A'+e)))
			for _, p := range props[:1+rng.Intn(len(props))] {
				for _, ch := range randomFieldFeed(rng, int64(cfg.BotRevertHorizonDays)*day) {
					ch.Entity, ch.Property = ent, p
					cube.Add(ch)
				}
			}
		}

		want, wantStats, err := applyReference(cube, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := Apply(cube, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("seed %d, %+v: Apply funnel\n%v differs from the reference\n%v", seed, cfg, gotStats, wantStats)
		}
		if !reflect.DeepEqual(got.Histories(), want.Histories()) {
			t.Fatalf("seed %d, %+v: Apply histories differ from the reference", seed, cfg)
		}
		for i, st := range wantStats.Stages {
			removed[i] += st.In - st.Out
		}
	}
	for i, n := range removed {
		if n == 0 {
			t.Errorf("no cube exercised stage %d: it removed nothing", i+1)
		}
	}
}

// randomFieldFeed returns one field's changes in arrival order: a
// chronological history of multi-change days, creates, deletes and bot
// reverts landing just inside, on and just past the revert horizon (some
// of them on a later day than the edit), of which about one in five
// arrives late, after changes it precedes.
func randomFieldFeed(rng *rand.Rand, horizon int64) []changecube.Change {
	var chs []changecube.Change
	t := int64(rng.Intn(3)) * day
	for n := 1 + rng.Intn(40); len(chs) < n; {
		switch rng.Intn(4) {
		case 0:
			t += int64(1+rng.Intn(3)) * day
		case 1:
			t += int64(rng.Intn(4)) * 3600
		default:
			t += int64(rng.Intn(60))
		}
		ch := upd(t, string(rune('a'+rng.Intn(3))))
		switch rng.Intn(12) {
		case 0:
			ch.Kind = changecube.Create
		case 1:
			ch.Kind, ch.Value = changecube.Delete, ""
		}
		if len(chs) == 0 && rng.Intn(3) == 0 {
			ch.Kind = changecube.Create
		}
		chs = append(chs, ch)
		if len(chs) > 1 && ch.Kind == changecube.Update && rng.Intn(3) == 0 {
			t += horizon + int64(rng.Intn(3)-1)
			chs = append(chs, changecube.Change{Time: t, Value: chs[len(chs)-2].Value, Kind: changecube.Update, Bot: true})
		}
	}
	for k := 0; k < len(chs)/5; k++ {
		i := rng.Intn(len(chs))
		j := i + rng.Intn(len(chs)-i)
		ch := chs[i]
		chs = slices.Insert(slices.Delete(chs, i, i+1), j, ch)
	}
	return chs
}

// TestResumeFieldMatchesApplyField: a funnel resumed batch by batch, with
// late changes landing before ones already walked, must equal ApplyField
// over the whole list after every batch, and must never rewrite a Days
// slice it handed out before.
func TestResumeFieldMatchesApplyField(t *testing.T) {
	cfg := Default()
	horizon := int64(cfg.BotRevertHorizonDays) * day
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		feed := randomFieldFeed(rng, horizon)
		var list []changecube.Change
		var f FieldFunnel
		var handed, copies [][]timeline.Day
		for len(feed) > 0 {
			batch := feed[:min(1+rng.Intn(4), len(feed))]
			feed = feed[len(batch):]
			from := len(list)
			for _, ch := range batch {
				i := len(list)
				for i > 0 && list[i-1].Time > ch.Time {
					i--
				}
				list = slices.Insert(list, i, ch)
				from = min(from, i)
			}
			ResumeField(&f, changeList(list), from, cfg)
			if want := ApplyField(list, cfg); !reflect.DeepEqual(f, want) {
				t.Fatalf("seed %d, %d changes, resumed at %d:\nresumed %+v\nfresh   %+v", seed, len(list), from, f, want)
			}
			handed, copies = append(handed, f.Days), append(copies, slices.Clone(f.Days))
		}
		for i := range handed {
			if !slices.Equal(handed[i], copies[i]) {
				t.Fatalf("seed %d: Days handed out after batch %d changed from %v to %v", seed, i, copies[i], handed[i])
			}
		}
	}
}

package filter

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// TestApplyFieldMatchesApply: summing every field's FieldFunnel over a
// random cube must reproduce the batch pipeline's per-stage counts and
// histories exactly — this is the contract live ingestion's incremental
// refiltering is built on.
func TestApplyFieldMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cube := changecube.New()
	props := make([]changecube.PropertyID, 6)
	for i := range props {
		props[i] = changecube.PropertyID(cube.Properties.Intern(string(rune('a' + i))))
	}
	for e := 0; e < 8; e++ {
		ent := cube.AddEntityNamed("tmpl", string(rune('A'+e)))
		for _, p := range props[:1+rng.Intn(len(props))] {
			n := rng.Intn(12)
			for i := 0; i < n; i++ {
				kind := changecube.Update
				switch rng.Intn(10) {
				case 0:
					kind = changecube.Create
				case 1:
					kind = changecube.Delete
				}
				cube.Add(changecube.Change{
					Time:     int64(rng.Intn(400)) * day,
					Entity:   ent,
					Property: p,
					Value:    string(rune('0' + rng.Intn(3))),
					Kind:     kind,
					Bot:      rng.Intn(5) == 0,
				})
			}
		}
	}
	cfg := Config{MinChanges: 3, BotRevertHorizonDays: 2}

	hs, stats, err := Apply(cube, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var raw, afterBots, afterDedup, afterCD, afterMin int
	var histories []changecube.History
	for key, chs := range cube.FieldChanges() {
		f := ApplyField(chs, cfg)
		raw += f.Raw
		afterBots += f.AfterBotReverts
		afterDedup += f.AfterDayDedup
		afterCD += len(f.Days)
		if len(f.Days) >= cfg.MinChanges {
			afterMin += len(f.Days)
			histories = append(histories, changecube.NewHistory(key, f.Days))
		}
	}
	got := [][2]int{{raw, afterBots}, {afterBots, afterDedup}, {afterDedup, afterCD}, {afterCD, afterMin}}
	for i, st := range stats.Stages {
		if got[i][0] != st.In || got[i][1] != st.Out {
			t.Fatalf("stage %q: summed funnels say %d->%d, Apply says %d->%d",
				st.Name, got[i][0], got[i][1], st.In, st.Out)
		}
	}
	perField, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perField.Histories(), hs.Histories()) {
		t.Fatal("per-field histories differ from Apply's")
	}
}

// TestFieldDaysIsApplyFieldDays: the legacy helper stays a pure view.
func TestFieldDaysIsApplyFieldDays(t *testing.T) {
	cube := fieldCube(upd(0, "a"), upd(day, "b"), upd(3*day, "c"))
	for _, chs := range cube.FieldChanges() {
		cfg := Default()
		if !reflect.DeepEqual(FieldDays(chs, cfg), ApplyField(chs, cfg).Days) {
			t.Fatal("FieldDays diverges from ApplyField().Days")
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

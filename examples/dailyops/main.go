// Dailyops demonstrates the operational loop the paper's deployment
// requires: a detector trained from the historical corpus and persisted as
// an epoch snapshot, daily batches of freshly parsed changes ingested into
// the running detector (predictions see them immediately) and snapshotted
// again, a restart that serves the same alerts from the store, and the
// yearly retraining the paper recommends in §5.3.3.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/ingest"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "wikistale-dailyops")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	cfg := core.DefaultConfig()

	// Day 0: train on the historical corpus and persist the epoch.
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		log.Fatal(err)
	}
	detector, err := core.Train(cube, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %d correlation rules, %d association rules\n",
		detector.FieldCorrelations().NumRules(), detector.AssociationRules().NumRules())
	store, err := epochstore.Open(epochstore.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	// Outside the live loop there is no feed, so the epoch carries an
	// empty checkpoint.
	rec, err := store.Snapshot(ctx, detector, ingest.Checkpoint{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrapped store: epoch %d, %d changes\n", rec.Seq, rec.Changes)

	// Simulated daily operation: a match-day edit arrives where matches is
	// updated but total_goals is forgotten.
	matchesProp := changecube.PropertyID(cube.Properties.Intern("matches"))
	goalsProp := changecube.PropertyID(cube.Properties.Intern("total_goals"))
	season := cube.AddEntityNamed("infobox football league season", "2019-20 Handball-Bundesliga")
	today := detector.Histories().Span().End + 1
	batch := []changecube.Change{{
		Time:     today.Unix() + 40000,
		Entity:   season,
		Property: matchesProp,
		Value:    "9",
		Kind:     changecube.Update,
	}}
	for _, ch := range batch {
		cube.Add(ch)
	}
	if err := detector.Ingest(batch); err != nil {
		log.Fatal(err)
	}
	rec, err = store.Snapshot(ctx, detector, ingest.Checkpoint{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day %s: ingested without retraining, persisted as epoch %d\n", today, rec.Seq)

	// The evening stale scan: the brand-new page is already covered by the
	// template rule learned from other seasons.
	var alerts []core.StaleAlert
	for _, alert := range detector.DetectStale(today+1, 3) {
		if alert.Field.Entity != season {
			continue
		}
		page := cube.Pages.Name(int32(cube.Page(alert.Field.Entity)))
		prop := cube.Properties.Name(int32(alert.Field.Property))
		fmt.Printf("stale: %s | %s — %s\n", page, prop, alert.Explanation)
		if alert.Field.Property != goalsProp {
			log.Fatal("unexpected property flagged")
		}
		alerts = append(alerts, alert)
	}

	// A restart boots from the newest epoch and serves the same alerts.
	loaded, err := store.LoadLatest(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if loaded.Detector == nil {
		log.Fatalf("restart found no loadable epoch: %v", loaded.Errors)
	}
	var reloaded []core.StaleAlert
	for _, alert := range loaded.Detector.DetectStale(today+1, 3) {
		if alert.Field.Entity == season {
			reloaded = append(reloaded, alert)
		}
	}
	if !reflect.DeepEqual(alerts, reloaded) {
		log.Fatal("reloaded epoch serves different alerts")
	}
	fmt.Printf("restarted from epoch %d (%s): same %d alert(s)\n",
		loaded.Record.Seq, loaded.Outcome, len(reloaded))

	// Yearly maintenance: retrain from the accumulated data and persist
	// the new epoch.
	retrained, err := loaded.Detector.Retrain()
	if err != nil {
		log.Fatal(err)
	}
	rec, err = store.Snapshot(ctx, retrained, ingest.Checkpoint{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrained (test split now ends %s); persisted as epoch %d\n",
		retrained.Splits().Test.End, rec.Seq)
}

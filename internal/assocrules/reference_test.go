package assocrules

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/wikistale/wikistale/internal/apriori"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

// buildTaggedReference is buildTaggedFiltered grouped through a map:
// every in-span change day appends its property to its (entity, week)
// set, each set is sorted and deduplicated, and each template's
// transactions are sorted by (entity, week) at the end.
func buildTaggedReference(hs *changecube.HistorySet, span timeline.Span, periodDays int, keep func(changecube.TemplateID) bool) map[changecube.TemplateID][]taggedTxn {
	type entityWeek struct {
		entity changecube.EntityID
		week   int
	}
	cube := hs.Cube()
	sets := make(map[entityWeek][]apriori.Item)
	nWeeks := span.Len() / periodDays
	for _, h := range hs.Histories() {
		if keep != nil && !keep(cube.Template(h.Field.Entity)) {
			continue
		}
		for _, day := range h.In(span) {
			week := int(day-span.Start) / periodDays
			if week >= nWeeks && nWeeks > 0 {
				continue
			}
			key := entityWeek{entity: h.Field.Entity, week: week}
			sets[key] = append(sets[key], apriori.Item(h.Field.Property))
		}
	}
	out := make(map[changecube.TemplateID][]taggedTxn)
	for key, items := range sets {
		t := cube.Template(key.entity)
		out[t] = append(out[t], taggedTxn{
			entity: key.entity,
			week:   key.week,
			items:  apriori.NormalizeTransaction(items),
		})
	}
	for _, ts := range out {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].entity != ts[j].entity {
				return ts[i].entity < ts[j].entity
			}
			return ts[i].week < ts[j].week
		})
	}
	return out
}

// groupingCase draws a span (at times shorter than one period), a set
// of templates whose entities hold one field or many, and days that
// crowd the span's first and last day, the trailing partial week and the
// days just outside the span; several days of a field often share a week.
func groupingCase(t *testing.T, rng *rand.Rand, periodDays int) (*changecube.HistorySet, timeline.Span) {
	t.Helper()
	start := timeline.Day(rng.Intn(30))
	length := rng.Intn(80)
	if rng.Intn(5) == 0 {
		length = rng.Intn(periodDays) // nWeeks == 0
	}
	span := timeline.NewSpan(start, start+timeline.Day(length))
	edges := []timeline.Day{span.Start, span.End - 1, span.Start - 1, span.End}
	if n := length / periodDays; n > 0 {
		cut := span.Start + timeline.Day(n*periodDays)
		edges = append(edges, cut, cut-1)
	}
	c := changecube.New()
	var histories []changecube.History
	nTemplates := 1 + rng.Intn(4)
	for e := 0; e < 1+rng.Intn(15); e++ {
		ent := c.AddEntityNamed(fmt.Sprintf("infobox t%d", rng.Intn(nTemplates)), fmt.Sprintf("Page %d", e))
		nProps := 1
		if rng.Intn(3) != 0 {
			nProps = 2 + rng.Intn(9)
		}
		for _, p := range rng.Perm(12)[:nProps] {
			set := map[timeline.Day]bool{}
			for n := rng.Intn(2 + length/3); n > 0; n-- {
				set[start-2+timeline.Day(rng.Intn(length+4))] = true
			}
			for n := rng.Intn(3); n > 0; n-- {
				set[edges[rng.Intn(len(edges))]] = true
			}
			if len(set) == 0 {
				set[edges[rng.Intn(len(edges))]] = true
			}
			var days []timeline.Day
			for d := range set {
				days = append(days, d)
			}
			slices.Sort(days)
			prop := changecube.PropertyID(c.Properties.Intern(fmt.Sprintf("p%d", p)))
			histories = append(histories, changecube.NewHistory(changecube.FieldKey{Entity: ent, Property: prop}, days))
		}
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs, span
}

// TestBuildTaggedMatchesReference: the per-entity sort-and-cut grouping
// yields the map-based reference's transactions, under keep filters, with
// items strictly increasing and each template's transactions in
// (entity, week) order.
func TestBuildTaggedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	txns := 0
	for c := 0; c < 240; c++ {
		periodDays := []int{1, 3, 7, 7}[rng.Intn(4)]
		hs, span := groupingCase(t, rng, periodDays)
		var keep func(changecube.TemplateID) bool
		if rng.Intn(2) == 0 {
			drop := changecube.TemplateID(rng.Intn(4))
			keep = func(t changecube.TemplateID) bool { return t != drop }
		}
		want := buildTaggedReference(hs, span, periodDays, keep)
		got := buildTaggedFiltered(hs, span, periodDays, keep)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (span %v, period %d):\n got %v\nwant %v", c, span, periodDays, got, want)
		}
		for template, ts := range got {
			for i, txn := range ts {
				for k := 1; k < len(txn.items); k++ {
					if txn.items[k-1] >= txn.items[k] {
						t.Fatalf("case %d template %d: items %v not strictly increasing", c, template, txn.items)
					}
				}
				if i > 0 && (ts[i-1].entity > txn.entity || ts[i-1].entity == txn.entity && ts[i-1].week >= txn.week) {
					t.Fatalf("case %d template %d: transaction %d (%d, %d) after (%d, %d)",
						c, template, i, txn.entity, txn.week, ts[i-1].entity, ts[i-1].week)
				}
			}
		}
		for _, ts := range want {
			txns += len(ts)
		}
	}
	if txns < 2000 {
		t.Fatalf("only %d transactions over all cases; the comparison is too weak", txns)
	}
}

package familycorr

// Incremental retraining: family rules are strictly family-local — a
// family's rules are a function of its own members' in-span change days
// and the config, nothing else — so a family none of whose members saw a
// new change (and which gained no member pages) reproduces its previous
// rules bit for bit. TrainIncremental extends the family index with the
// entities created since the previous training, re-pools and re-searches
// only the dirty families, and grafts the clean families' previous rules
// back in. A moved span shifts every family's pooled window at once, so
// it falls back to a full rebuild (the live span rolls at most once per
// data day; every retrain in between reuses).

import (
	"fmt"
	"sort"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/pagefamily"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Previous carries the last successful training, the span it pooled over,
// and the entity count of the cube it trained on. Entity IDs are dense and
// append-only in the live staging lineage, so IDs at or above Entities are
// entities created since then — the only way a family gains members.
type Previous struct {
	Predictor *Predictor
	Span      timeline.Span
	Entities  int
}

// IncrementalStats reports what TrainIncremental actually did.
type IncrementalStats struct {
	// Full is true when every family was re-searched; FullReason is "cold",
	// "forced", "span", or "entities_shrunk" (the cube lost entities, which
	// the append-only ID assumption cannot survive).
	Full       bool
	FullReason string
	// FamiliesTotal counts the kept (>= MinMembers) families;
	// FamiliesReused + FamiliesRetrained == FamiliesTotal.
	FamiliesTotal     int
	FamiliesReused    int
	FamiliesRetrained int
	// NewEntities counts entities created since the previous training.
	NewEntities int
}

// TrainIncremental is Train with per-family rule reuse. dirty lists the
// fields whose change histories differ from the previous training's,
// vanished fields included (core derives it with
// changecube.HistorySet.ChangedSince); prev must come from the same
// configuration, and a nil prev.Predictor is a cold build. The result is bit-identical to Train over
// the same inputs.
func TrainIncremental(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, dirty map[changecube.FieldKey]bool, forceFull bool) (*Predictor, IncrementalStats, error) {
	cube := hs.Cube()
	reason := ""
	switch {
	case forceFull:
		reason = "forced"
	case prev.Predictor == nil || prev.Predictor.allMembers == nil:
		// FromRules-built predictors carry no member index to extend.
		reason = "cold"
	case span != prev.Span:
		reason = "span"
	case cube.NumEntities() < prev.Entities:
		reason = "entities_shrunk"
	}
	if reason != "" {
		p, err := Train(hs, span, cfg)
		if err != nil {
			return nil, IncrementalStats{}, err
		}
		return p, IncrementalStats{
			Full: true, FullReason: reason,
			FamiliesTotal:     p.Families(),
			FamiliesRetrained: p.Families(),
			NewEntities:       cube.NumEntities() - prev.Entities,
		}, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, IncrementalStats{}, err
	}
	if cfg.Correlation.Theta <= 0 || cfg.Correlation.Theta > 1 {
		return nil, IncrementalStats{}, fmt.Errorf("familycorr: Theta %v out of (0,1]", cfg.Correlation.Theta)
	}

	stats := IncrementalStats{NewEntities: cube.NumEntities() - prev.Entities}

	// Extend the page→family cache with pages created since the previous
	// training. Filled entries never change (page titles are immutable in
	// the cube), so the old prefix is copied as-is.
	famOf := make([]string, cube.Pages.Len())
	copy(famOf, prev.Predictor.familyOf)

	// Extend the member index. New entities' appends clone the previous
	// slice (full-capacity slice expression) so the previous predictor —
	// still serving — is never mutated.
	allMembers := make(map[string][]changecube.EntityID, len(prev.Predictor.allMembers))
	for fam, m := range prev.Predictor.allMembers {
		allMembers[fam] = m
	}
	dirtyFams := make(map[string]bool)
	familyAt := func(e changecube.EntityID) string {
		page := cube.Page(e)
		fam := famOf[page]
		if fam == "" {
			fam = pagefamily.Normalize(cube.Pages.Name(int32(page)))
			famOf[page] = fam
		}
		return fam
	}
	for e := prev.Entities; e < cube.NumEntities(); e++ {
		id := changecube.EntityID(e)
		fam := familyAt(id)
		m := allMembers[fam]
		allMembers[fam] = append(m[:len(m):len(m)], id)
		dirtyFams[fam] = true
	}
	for f := range dirty {
		dirtyFams[familyAt(f.Entity)] = true
	}

	p := &Predictor{
		partners:   make(map[familyProperty][]changecube.PropertyID, len(prev.Predictor.partners)),
		members:    make(map[string][]changecube.EntityID, len(prev.Predictor.members)),
		allMembers: allMembers,
		familyOf:   famOf,
	}
	// Kept families: the previous keeps minus nothing (families never
	// shrink), plus dirty families that crossed MinMembers.
	for fam := range prev.Predictor.members {
		p.members[fam] = allMembers[fam]
	}
	for fam := range dirtyFams {
		if len(allMembers[fam]) >= cfg.MinMembers {
			p.members[fam] = allMembers[fam]
		}
	}

	stats.FamiliesTotal = len(p.members)

	// Re-pool and re-search the dirty kept families only. Histories are
	// sorted by (entity, property), so each member's histories form one
	// contiguous run found by binary search, and walking members in
	// ascending-ID order reproduces the full Train's pooling order.
	histories := hs.Histories()
	var retrain []string
	for fam := range dirtyFams {
		if _, ok := p.members[fam]; ok {
			retrain = append(retrain, fam)
		}
	}
	sort.Strings(retrain)
	stats.FamiliesRetrained = len(retrain)
	stats.FamiliesReused = stats.FamiliesTotal - stats.FamiliesRetrained

	retrainSet := make(map[string]bool, len(retrain))
	for _, fam := range retrain {
		retrainSet[fam] = true
	}
	var rules []Rule
	for _, r := range prev.Predictor.rules {
		if !retrainSet[r.Family] {
			rules = append(rules, r)
		}
	}
	for _, fam := range retrain {
		pooled := make(map[familyProperty][]timeline.Day)
		for _, e := range p.members[fam] {
			lo := sort.Search(len(histories), func(i int) bool { return histories[i].Field.Entity >= e })
			hi := sort.Search(len(histories), func(i int) bool { return histories[i].Field.Entity > e })
			for _, h := range histories[lo:hi] {
				key := familyProperty{family: fam, property: h.Field.Property}
				pooled[key] = append(pooled[key], h.In(span)...)
			}
		}
		keys := make([]familyProperty, 0, len(pooled))
		for key, days := range pooled {
			sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
			days = dedupDays(days)
			if len(days) < cfg.MinPooledChanges {
				delete(pooled, key)
				continue
			}
			pooled[key] = days
			keys = append(keys, key)
		}
		rules = append(rules, searchFamily(fam, keys, pooled, span, cfg)...)
	}
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	p.rules = rules
	p.indexPartners()
	return p, stats, nil
}

package familycorr

// Incremental retraining: family rules are strictly family-local — a
// family's rules are a function of its own members' in-span change days
// and the config, nothing else (the overlap distance does not read the
// span length) — so a family whose members' in-span days are unchanged
// and which gained no member pages reproduces its previous rules bit for
// bit, whether or not the span moved. TrainIncremental extends the family
// index with the entities created since the previous training, re-pools
// and re-searches only the families those entities joined or
// changecube.DirtyUnits marks, and grafts the other families' previous
// rules back in.

import (
	"fmt"
	"sort"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
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
	// Full is true when every family was re-searched; FullReason is
	// "cold", "forced", "norm_span" (span moved under a length-normalized
	// distance, which rescales every pair), or "entities_shrunk" (the cube
	// lost entities, which the append-only ID assumption cannot survive).
	Full       bool
	FullReason string
	// FamiliesTotal counts the kept (>= MinMembers) families;
	// FamiliesReused + FamiliesRetrained == FamiliesTotal.
	FamiliesTotal     int
	FamiliesReused    int
	FamiliesRetrained int
	// NewEntities counts the entities added to the family index: those
	// created since the previous training, every entity on a full rebuild.
	NewEntities int
}

// TrainIncremental is Train with per-family rule reuse. delta is what
// changed since prev, which must come from the same configuration;
// changecube.Cold with a zero prev is a cold build. The result is
// bit-identical to Train over the same inputs.
func TrainIncremental(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	prev Previous, delta changecube.Delta) (*Predictor, IncrementalStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, IncrementalStats{}, err
	}
	if cfg.Correlation.Theta <= 0 || cfg.Correlation.Theta > 1 {
		return nil, IncrementalStats{}, fmt.Errorf("familycorr: Theta %v out of (0,1]", cfg.Correlation.Theta)
	}
	cube := hs.Cube()
	switch {
	case prev.Predictor != nil && prev.Predictor.allMembers == nil:
		// FromRules-built predictors carry no member index to extend.
		delta = delta.Rebuild("cold")
	case cfg.Correlation.Norm != correlation.NormOverlap && span != prev.Span:
		delta = delta.Rebuild("norm_span")
	case cube.NumEntities() < prev.Entities:
		delta = delta.Rebuild("entities_shrunk")
	}
	// A full rebuild extends an empty index: every entity is new, so every
	// family is retrained.
	old, from := &Predictor{}, 0
	if delta.Full == "" {
		old, from = prev.Predictor, prev.Entities
	}

	// Extend the page→family cache with pages created since the previous
	// training. Filled entries never change (page titles are immutable in
	// the cube), so the old prefix is copied as-is.
	famOf := make([]string, cube.Pages.Len())
	copy(famOf, old.familyOf)
	familyAt := func(e changecube.EntityID) string {
		page := cube.Page(e)
		fam := famOf[page]
		if fam == "" {
			fam = pagefamily.Normalize(cube.Pages.Name(int32(page)))
			famOf[page] = fam
		}
		return fam
	}

	// Extend the member index. The previous slices are capped at their
	// length, so a new entity's append copies before it writes and the
	// previous predictor — still serving — is never mutated. A family that
	// gains a member is retrained, as is every family DirtyUnits marks.
	allMembers := make(map[string][]changecube.EntityID, len(old.allMembers))
	for fam, m := range old.allMembers {
		allMembers[fam] = m[:len(m):len(m)]
	}
	touched := make(map[string]bool)
	for e := from; e < cube.NumEntities(); e++ {
		id := changecube.EntityID(e)
		fam := familyAt(id)
		allMembers[fam] = append(allMembers[fam], id)
		touched[fam] = true
	}
	dirty := changecube.DirtyUnits(hs, delta, prev.Span, span, func(f changecube.FieldKey) string {
		return familyAt(f.Entity)
	})
	for fam := range dirty.Units {
		touched[fam] = true
	}

	p := &Predictor{
		partners:   make(map[familyProperty][]changecube.PropertyID, len(old.partners)),
		members:    make(map[string][]changecube.EntityID, len(old.members)),
		allMembers: allMembers,
		familyOf:   famOf,
	}
	// Kept families: the previous keeps minus nothing (families never
	// shrink), plus touched families that crossed MinMembers.
	for fam := range old.members {
		p.members[fam] = allMembers[fam]
	}
	var retrain []string
	for fam := range touched {
		if len(allMembers[fam]) >= cfg.MinMembers {
			p.members[fam] = allMembers[fam]
			retrain = append(retrain, fam)
		}
	}
	sort.Strings(retrain)
	stats := IncrementalStats{
		Full:              delta.Full != "",
		FullReason:        delta.Full,
		FamiliesTotal:     len(p.members),
		FamiliesRetrained: len(retrain),
		FamiliesReused:    len(p.members) - len(retrain),
		NewEntities:       cube.NumEntities() - from,
	}

	retrainSet := make(map[string]bool, len(retrain))
	for _, fam := range retrain {
		retrainSet[fam] = true
	}
	var rules []Rule
	for _, r := range old.rules {
		if !retrainSet[r.Family] {
			rules = append(rules, r)
		}
	}
	// Re-pool and re-search the retrained families. Histories are sorted by
	// (entity, property), so each member's histories form one contiguous
	// run found by binary search, and walking members in ascending-ID order
	// pools every property's days in field order.
	histories := hs.Histories()
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

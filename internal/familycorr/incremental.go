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
		if old.familyOf == nil {
			// A FromRules predictor: rebuild the index its training had
			// over the entities it saw, the cube's first prev.Entities.
			index, _ := extendIndex(&Predictor{}, cube, 0, from, cfg.MinMembers)
			index.rules = old.rules
			old = index
		}
	}
	// A family that gains a member is retrained, as is every family
	// DirtyUnits marks.
	p, touched := extendIndex(old, cube, from, cube.NumEntities(), cfg.MinMembers)
	dirty := changecube.DirtyUnits(hs, delta, prev.Span, span, func(f changecube.FieldKey) string {
		return p.familyOf[cube.Page(f.Entity)]
	})
	for fam := range dirty.Units {
		touched[fam] = true
	}
	var retrain []string
	for fam := range touched {
		if p.members[fam] != nil {
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

// extendIndex returns a predictor without rules holding old's member
// index extended with the cube's entities in [from, to), and the
// families those entities joined. Filled page→family entries never change
// (page titles are immutable in the cube), so old's are copied as they
// are. Old's member slices are capped at their length, so a new entity's
// append copies before it writes and old — still serving — is never
// mutated. The kept families are every family with at least minMembers
// members: old's, plus those a new member lifted over the bar.
func extendIndex(old *Predictor, cube *changecube.Cube, from, to, minMembers int) (*Predictor, map[string]bool) {
	p := &Predictor{
		partners:   make(map[familyProperty][]changecube.PropertyID, len(old.partners)),
		members:    make(map[string][]changecube.EntityID, len(old.members)),
		allMembers: make(map[string][]changecube.EntityID, len(old.allMembers)),
		familyOf:   make([]string, cube.Pages.Len()),
	}
	copy(p.familyOf, old.familyOf)
	for fam, m := range old.allMembers {
		p.allMembers[fam] = m[:len(m):len(m)]
	}
	joined := make(map[string]bool)
	for e := from; e < to; e++ {
		id := changecube.EntityID(e)
		page := cube.Page(id)
		fam := p.familyOf[page]
		if fam == "" {
			fam = pagefamily.Normalize(cube.Pages.Name(int32(page)))
			p.familyOf[page] = fam
		}
		p.allMembers[fam] = append(p.allMembers[fam], id)
		joined[fam] = true
	}
	for fam := range old.members {
		p.members[fam] = p.allMembers[fam]
	}
	for fam := range joined {
		if len(p.allMembers[fam]) >= minMembers {
			p.members[fam] = p.allMembers[fam]
		}
	}
	return p, joined
}

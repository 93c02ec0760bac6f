// Package familycorr implements the second §6 future-work extension:
// field correlations across the yearly incarnations of annual-event pages.
// "2016-17 Handball-Bundesliga", "2017-18 Handball-Bundesliga" and this
// year's season page are separate pages with separate infoboxes, so the
// paper's page-local correlation search sees each year's short history in
// isolation — and learns nothing for the page that matters most, the
// current season, which did not exist during training.
//
// Family correlations pool the change histories of a family's members per
// property, discover correlated property pairs on the pooled histories
// with the same distance measure, and apply the rules to every member —
// including members created after training, mirroring how the paper's
// template-level association rules transfer to unseen infoboxes.
package familycorr

import (
	"fmt"
	"sort"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/pagefamily"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Config tunes training.
type Config struct {
	// Correlation supplies the distance threshold and normalization; the
	// pairwise search runs within families instead of within pages.
	Correlation correlation.Config
	// MinMembers skips families with fewer member entities — a
	// single-member family is just a page, which the paper's predictor
	// already covers.
	MinMembers int
	// MinPooledChanges requires this many pooled change days per property
	// before it participates (the counterpart of the corpus-level
	// five-change rule, applied to the pooled history).
	MinPooledChanges int
}

// Default returns the configuration used by the extension experiment.
func Default() Config {
	return Config{
		Correlation:      correlation.Default(),
		MinMembers:       2,
		MinPooledChanges: 5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinMembers < 2 {
		return fmt.Errorf("familycorr: MinMembers %d < 2", c.MinMembers)
	}
	if c.MinPooledChanges < 1 {
		return fmt.Errorf("familycorr: MinPooledChanges %d < 1", c.MinPooledChanges)
	}
	return nil
}

// Rule is a family-level correlation: within every member page of Family,
// property A and property B change together.
type Rule struct {
	Family   string
	A, B     changecube.PropertyID
	Distance float64
}

type familyProperty struct {
	family   string
	property changecube.PropertyID
}

// Predictor holds family rules and the trained member index.
type Predictor struct {
	rules    []Rule
	partners map[familyProperty][]changecube.PropertyID
	// members indexes the kept (>= MinMembers) families' entities.
	members map[string][]changecube.EntityID
	// allMembers indexes every family, single-member ones included, and
	// familyOf caches each page's normalized family (indexed by PageID,
	// "" = page never seen on an entity). Both exist for TrainIncremental:
	// entity IDs and pages are append-only in the live staging lineage, so
	// the next training extends these instead of re-normalizing every
	// page title. FromRules leaves them nil; TrainIncremental rebuilds
	// them when it extends such a predictor.
	allMembers map[string][]changecube.EntityID
	familyOf   []string
}

var _ predict.Predictor = (*Predictor)(nil)

// Train pools histories per (family, property) over span and discovers
// correlated property pairs within each family: the cold build of
// TrainIncremental.
func Train(hs *changecube.HistorySet, span timeline.Span, cfg Config) (*Predictor, error) {
	p, _, err := TrainIncremental(hs, span, cfg, Previous{}, changecube.Cold)
	return p, err
}

// searchFamily runs the pairwise correlation search over one family's
// pooled per-property histories and returns its rules, ordered by (A, B).
func searchFamily(fam string, keys []familyProperty, pooled map[familyProperty][]timeline.Day,
	span timeline.Span, cfg Config) []Rule {
	sort.Slice(keys, func(i, j int) bool { return keys[i].property < keys[j].property })
	if cfg.Correlation.MaxFieldsPerPage > 0 && len(keys) > cfg.Correlation.MaxFieldsPerPage {
		return nil
	}
	var rules []Rule
	for x := 0; x < len(keys); x++ {
		for y := x + 1; y < len(keys); y++ {
			a := changecube.NewHistory(changecube.FieldKey{}, pooled[keys[x]])
			b := changecube.NewHistory(changecube.FieldKey{}, pooled[keys[y]])
			d := correlation.DistanceTolerant(a, b, span, cfg.Correlation.Norm, cfg.Correlation.ToleranceDays)
			if d < cfg.Correlation.Theta {
				rules = append(rules, Rule{
					Family:   fam,
					A:        keys[x].property,
					B:        keys[y].property,
					Distance: d,
				})
			}
		}
	}
	return rules
}

// indexPartners rebuilds the partner index from p.rules. Rules are ordered
// by (Family, A, B) — the order the family-by-family search emits them in —
// so the per-key partner lists come out identical whether built inline
// during the search or replayed from the rules afterwards.
func (p *Predictor) indexPartners() {
	for _, r := range p.rules {
		p.partners[familyProperty{family: r.Family, property: r.A}] = append(
			p.partners[familyProperty{family: r.Family, property: r.A}], r.B)
		p.partners[familyProperty{family: r.Family, property: r.B}] = append(
			p.partners[familyProperty{family: r.Family, property: r.B}], r.A)
	}
}

func dedupDays(days []timeline.Day) []timeline.Day {
	out := days[:0]
	for i, d := range days {
		if i == 0 || d != out[len(out)-1] {
			out = append(out, d)
		}
	}
	return out
}

// Name implements predict.Predictor.
func (p *Predictor) Name() string { return "family correlations" }

// Rules returns the learned family rules.
func (p *Predictor) Rules() []Rule { return p.rules }

// NumRules returns the number of family rules.
func (p *Predictor) NumRules() int { return len(p.rules) }

// Families returns the number of multi-member families indexed.
func (p *Predictor) Families() int { return len(p.members) }

// Predict implements predict.Predictor: the target property of a family
// page should have changed when a partner property changed on the same
// page within the window. The family is only the rule-learning scope —
// evidence stays page-local, exactly as template-level association rules
// learn across infoboxes but fire on same-infobox evidence. This is what
// lets the rule fire on a page created after training: the new season's
// page carries its own evidence.
func (p *Predictor) Predict(ctx predict.Context) bool {
	return len(p.explain(ctx, true)) > 0
}

// Explain returns the partner properties whose changes justify a positive
// prediction.
func (p *Predictor) Explain(ctx predict.Context) []changecube.PropertyID {
	return p.explain(ctx, false)
}

func (p *Predictor) explain(ctx predict.Context, firstOnly bool) []changecube.PropertyID {
	cube := ctx.Cube()
	target := ctx.Target()
	fam := pagefamily.Normalize(cube.Pages.Name(int32(cube.Page(target.Entity))))
	key := familyProperty{family: fam, property: target.Property}
	partnerProps := p.partners[key]
	if len(partnerProps) == 0 {
		return nil
	}
	var out []changecube.PropertyID
	for _, prop := range partnerProps {
		f := changecube.FieldKey{Entity: target.Entity, Property: prop}
		if ctx.FieldChangedIn(f, ctx.Window().Span) {
			out = append(out, prop)
			if firstOnly {
				return out
			}
		}
	}
	return out
}

// FromRules reconstructs a predictor from previously learned family rules
// — the deserialization path for model persistence. It carries no member
// index, so Families reflects families with rules rather than all
// multi-member families; a TrainIncremental extending it first rebuilds
// the index its training had.
func FromRules(rules []Rule) *Predictor {
	p := &Predictor{
		rules:    append([]Rule(nil), rules...),
		partners: make(map[familyProperty][]changecube.PropertyID, len(rules)),
		members:  make(map[string][]changecube.EntityID),
	}
	sort.Slice(p.rules, func(i, j int) bool {
		a, b := p.rules[i], p.rules[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	p.indexPartners()
	for _, r := range p.rules {
		p.members[r.Family] = nil
	}
	return p
}

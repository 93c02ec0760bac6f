// Package assocrules implements the paper's association-rule predictor
// (§3.3). Changes are grouped into one transaction per (infobox, week);
// each change is typed by its (template, property) pair, so the mined
// unary rules X → Y hold for every infobox of a template. After mining
// with Apriori, rules are validated on a held-out slice of the training
// data and kept only when their prediction precision there reaches the
// cut-off (90 % in the paper: the 85 % target plus a 5 % buffer).
package assocrules

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/wikistale/wikistale/internal/apriori"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Scope selects the denominator for minimum support.
type Scope int

const (
	// PerTemplate measures support against the template's own transaction
	// count (default; see DESIGN.md §3.2).
	PerTemplate Scope = iota
	// Global measures support against all transactions across templates —
	// the paper's literal wording, kept for the ablation study.
	Global
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case PerTemplate:
		return "per-template"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// ValidationScheme selects how the rule-validation holdout is drawn from
// the training data.
type ValidationScheme int

const (
	// HoldoutTransactions holds out a deterministic pseudo-random share of
	// (infobox, week) transactions. Every template is represented in the
	// holdout regardless of when its entities lived (default).
	HoldoutTransactions ValidationScheme = iota
	// HoldoutTail holds out the trailing share of the training span on
	// the time axis — the strictest temporal discipline, at the cost of
	// starving templates whose entities are short-lived.
	HoldoutTail
)

// String names the scheme.
func (s ValidationScheme) String() string {
	switch s {
	case HoldoutTransactions:
		return "transactions"
	case HoldoutTail:
		return "tail"
	default:
		return fmt.Sprintf("ValidationScheme(%d)", int(s))
	}
}

// Config tunes training.
type Config struct {
	// MinSupport is the Apriori minimum support; the paper's grid search
	// selects 0.25 %.
	MinSupport float64
	// MinConfidence is the Apriori minimum confidence; the paper selects
	// 60 %.
	MinConfidence float64
	// ValidationFraction is the share of the training data held out to
	// validate rule precision; the paper selects 10 %.
	ValidationFraction float64
	// ValidationScheme selects how the holdout is drawn.
	ValidationScheme ValidationScheme
	// RulePrecisionCut discards rules below this precision on the
	// validation slice; the paper uses 90 %.
	RulePrecisionCut float64
	// MinValidationFires discards rules whose antecedent fired fewer than
	// this many times on the holdout: a precision estimated from two or
	// three fires is noise, and with thousands of candidates the noise
	// survives multiple testing.
	MinValidationFires int
	// PeriodDays is the transaction period; the paper uses 7 days to match
	// the weekly editing rhythm of volunteer contributors.
	PeriodDays int
	// SupportScope selects the support denominator.
	SupportScope Scope
	// KeepUnvalidated keeps rules whose antecedent never fires on the
	// validation slice (their precision is unknowable). Default is to
	// drop them, trading recall for precision safety.
	KeepUnvalidated bool
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		MinSupport:         0.0025,
		MinConfidence:      0.60,
		ValidationFraction: 0.10,
		RulePrecisionCut:   0.90,
		MinValidationFires: 5,
		PeriodDays:         7,
		SupportScope:       PerTemplate,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinSupport <= 0 || c.MinSupport > 1 {
		return fmt.Errorf("assocrules: MinSupport %v out of (0,1]", c.MinSupport)
	}
	if c.MinConfidence <= 0 || c.MinConfidence > 1 {
		return fmt.Errorf("assocrules: MinConfidence %v out of (0,1]", c.MinConfidence)
	}
	if c.ValidationFraction < 0 || c.ValidationFraction >= 1 {
		return fmt.Errorf("assocrules: ValidationFraction %v out of [0,1)", c.ValidationFraction)
	}
	if c.RulePrecisionCut < 0 || c.RulePrecisionCut > 1 {
		return fmt.Errorf("assocrules: RulePrecisionCut %v out of [0,1]", c.RulePrecisionCut)
	}
	if c.MinValidationFires < 0 {
		return fmt.Errorf("assocrules: MinValidationFires %d < 0", c.MinValidationFires)
	}
	if c.PeriodDays < 1 {
		return fmt.Errorf("assocrules: PeriodDays %d < 1", c.PeriodDays)
	}
	return nil
}

// Rule is a validated unary association rule: within a template, a change
// to Antecedent in a week implies a change to Consequent in the same week.
type Rule struct {
	Template   changecube.TemplateID
	Antecedent changecube.PropertyID
	Consequent changecube.PropertyID
	// Support and Confidence are the Apriori statistics on the mining
	// slice (support relative to the configured scope).
	Support    float64
	Confidence float64
	// ValidationPrecision is the rule's prediction precision on the
	// held-out slice; Fires is how often its antecedent occurred there.
	ValidationPrecision float64
	Fires               int
}

type templateProperty struct {
	template changecube.TemplateID
	property changecube.PropertyID
}

// Predictor holds the validated rules, indexed by (template, consequent).
type Predictor struct {
	rules       []Rule
	antecedents map[templateProperty][]changecube.PropertyID
	// byConsequent carries the full rules per (template, consequent) so the
	// explain path can report support/confidence evidence; parallel to
	// antecedents (same keys, same order).
	byConsequent map[templateProperty][]Rule
}

var (
	_ predict.Predictor      = (*Predictor)(nil)
	_ predict.BatchPredictor = (*Predictor)(nil)
)

// Train mines and validates association rules on the change days inside
// span.
func Train(hs *changecube.HistorySet, span timeline.Span, cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pre, err := Prepare(hs, span, cfg.PeriodDays)
	if err != nil {
		return nil, err
	}
	return trainTagged(context.Background(), pre.tagged, span, cfg)
}

// Prepared caches the grouped (infobox, week) transactions of one
// (corpus, span, period) combination. Grouping depends on none of the
// mining parameters, so a grid search over support/confidence/holdout
// shares one Prepared across all its points. The cached transactions are read-only after Prepare;
// concurrent TrainPrepared calls are safe.
type Prepared struct {
	span       timeline.Span
	periodDays int
	tagged     map[changecube.TemplateID][]taggedTxn
}

// Prepare groups the change days inside span into transactions once, for
// reuse by TrainPrepared under any config with the same PeriodDays.
func Prepare(hs *changecube.HistorySet, span timeline.Span, periodDays int) (*Prepared, error) {
	if periodDays < 1 {
		return nil, fmt.Errorf("assocrules: PeriodDays %d < 1", periodDays)
	}
	tspan := obs.StartSpan("train/assoc_transactions")
	defer tspan.End()
	return &Prepared{
		span:       span,
		periodDays: periodDays,
		tagged:     buildTagged(hs, span, periodDays),
	}, nil
}

// TrainPrepared is Train over a precomputed transaction grouping. The
// result is bit-identical to Train(hs, pre.span, cfg) for any cfg whose
// PeriodDays matches the one given to Prepare.
func TrainPrepared(pre *Prepared, cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PeriodDays != pre.periodDays {
		return nil, fmt.Errorf("assocrules: prepared with PeriodDays=%d, config asks for %d",
			pre.periodDays, cfg.PeriodDays)
	}
	return trainTagged(context.Background(), pre.tagged, pre.span, cfg)
}

// trainTagged is the shared mining+validation pipeline behind Train,
// TrainPrepared and TrainIncremental; its stage timers are children of
// ctx's trace. It never mutates tagged.
func trainTagged(ctx context.Context, tagged map[changecube.TemplateID][]taggedTxn, span timeline.Span, cfg Config) (*Predictor, error) {
	_, tspan := obs.StartSpanCtx(ctx, "train/assoc_holdout")
	mining, validation := splitHoldout(tagged, span, cfg)
	tspan.End()

	txns := make(map[changecube.TemplateID][]apriori.Transaction, len(mining))
	total := 0
	for template, ts := range mining {
		plain := make([]apriori.Transaction, len(ts))
		for i, t := range ts {
			plain[i] = t.items
		}
		txns[template] = plain
		total += len(plain)
	}

	_, tspan = obs.StartSpanCtx(ctx, "train/assoc_mine")
	var candidates []Rule
	for template, ts := range txns {
		minSup := cfg.MinSupport
		if cfg.SupportScope == Global {
			if total == 0 {
				continue
			}
			// Rescale so that count-based filtering inside the template
			// matches the global denominator.
			minSup = cfg.MinSupport * float64(total) / float64(len(ts))
			if minSup > 1 {
				continue // the template cannot reach global support
			}
		}
		mined, err := apriori.Mine(ts, apriori.Config{
			MinSupport:    minSup,
			MinConfidence: cfg.MinConfidence,
			MaxLen:        2,
		})
		if err != nil {
			return nil, err
		}
		for _, r := range mined {
			if len(r.Antecedent) != 1 || len(r.Consequent) != 1 {
				continue
			}
			support := r.Support
			if cfg.SupportScope == Global {
				support = r.Support * float64(len(ts)) / float64(total)
			}
			candidates = append(candidates, Rule{
				Template:   template,
				Antecedent: changecube.PropertyID(r.Antecedent[0]),
				Consequent: changecube.PropertyID(r.Consequent[0]),
				Support:    support,
				Confidence: r.Confidence,
			})
		}
	}

	tspan.End()

	_, tspan = obs.StartSpanCtx(ctx, "train/assoc_validate")
	defer tspan.End()
	return buildPredictor(validateRules(candidates, validation, cfg)), nil
}

// buildPredictor sorts the rules and builds the consequent indexes — the
// shared tail of trainTagged and FromRules, so both produce identical
// predictors from identical rule sets. It takes ownership of rules.
func buildPredictor(rules []Rule) *Predictor {
	p := &Predictor{
		rules:        rules,
		antecedents:  make(map[templateProperty][]changecube.PropertyID, len(rules)),
		byConsequent: make(map[templateProperty][]Rule, len(rules)),
	}
	sort.Slice(p.rules, func(i, j int) bool { return ruleLess(p.rules[i], p.rules[j]) })
	for _, r := range p.rules {
		key := templateProperty{template: r.Template, property: r.Consequent}
		p.antecedents[key] = append(p.antecedents[key], r.Antecedent)
		p.byConsequent[key] = append(p.byConsequent[key], r)
	}
	return p
}

func ruleLess(a, b Rule) bool {
	if a.Template != b.Template {
		return a.Template < b.Template
	}
	if a.Antecedent != b.Antecedent {
		return a.Antecedent < b.Antecedent
	}
	return a.Consequent < b.Consequent
}

// taggedTxn is one (infobox, week) transaction with its identity retained,
// so the validation holdout can be drawn deterministically.
type taggedTxn struct {
	entity changecube.EntityID
	week   int
	items  apriori.Transaction
}

// buildTagged groups the change days inside span into one transaction per
// (infobox, period) combination, keyed by template. Only combinations with
// at least one change materialize; changes in the trailing partial period
// are dropped, matching the window discipline.
func buildTagged(hs *changecube.HistorySet, span timeline.Span, periodDays int) map[changecube.TemplateID][]taggedTxn {
	return buildTaggedFiltered(hs, span, periodDays, nil)
}

// buildTaggedFiltered is buildTagged restricted to the templates keep
// accepts (nil keeps all) — the incremental path's way of grouping only
// the dirty templates' transactions.
//
// hs.Histories() is in (entity, property) order, so the walk takes one
// entity's fields at a time. Each field adds one (week, property) key per
// week it changed in, and a counting sort of the entity's keys by week
// cuts them into its transactions: the sort is stable and the keys arrive
// in property order, so every transaction's items come out strictly
// increasing. Entities come in ascending order, so every template's
// transactions come out in (entity, week) order with no map or sort
// across entities. Each entity's items share one arena.
func buildTaggedFiltered(hs *changecube.HistorySet, span timeline.Span, periodDays int, keep func(changecube.TemplateID) bool) map[changecube.TemplateID][]taggedTxn {
	cube := hs.Cube()
	nWeeks := span.Len() / periodDays
	out := make(map[changecube.TemplateID][]taggedTxn)
	histories := hs.Histories()
	var keys []uint64
	var off []int
	for i, j := 0, 0; i < len(histories); i = j {
		entity := histories[i].Field.Entity
		for j = i + 1; j < len(histories) && histories[j].Field.Entity == entity; j++ {
		}
		template := cube.Template(entity)
		if keep != nil && !keep(template) {
			continue
		}
		keys = keys[:0]
		minW, maxW := math.MaxInt, -1
		for _, h := range histories[i:j] {
			last := -1
			for _, day := range h.In(span) {
				week := int(day-span.Start) / periodDays
				if week >= nWeeks && nWeeks > 0 {
					break
				}
				if week != last {
					keys = append(keys, uint64(week)<<32|uint64(uint32(h.Field.Property)))
					last = week
					minW, maxW = min(minW, week), max(maxW, week)
				}
			}
		}
		if len(keys) == 0 {
			continue
		}
		// After the prefix sum off[w] is the first slot of week minW+w;
		// placing the keys advances it to the slot after the week's last
		// item, where the next week starts.
		n := maxW - minW + 1
		off = slices.Grow(off[:0], n+1)[:n+1]
		clear(off)
		for _, key := range keys {
			off[int(key>>32)-minW+1]++
		}
		for w := 1; w <= n; w++ {
			off[w] += off[w-1]
		}
		items := make(apriori.Transaction, len(keys))
		for _, key := range keys {
			w := int(key>>32) - minW
			items[off[w]] = apriori.Item(uint32(key))
			off[w]++
		}
		txns := out[template]
		lo := 0
		for w := 0; w < n; w++ {
			if hi := off[w]; hi > lo {
				txns = append(txns, taggedTxn{entity: entity, week: minW + w, items: items[lo:hi:hi]})
				lo = hi
			}
		}
		out[template] = txns
	}
	return out
}

// BuildTransactions is the untagged view of buildTagged, exposed for tests
// and benchmarks.
func BuildTransactions(hs *changecube.HistorySet, span timeline.Span, periodDays int) map[changecube.TemplateID][]apriori.Transaction {
	out := make(map[changecube.TemplateID][]apriori.Transaction)
	for template, ts := range buildTagged(hs, span, periodDays) {
		plain := make([]apriori.Transaction, len(ts))
		for i, t := range ts {
			plain[i] = t.items
		}
		out[template] = plain
	}
	return out
}

// splitHoldout partitions the tagged transactions into mining and
// validation sets according to the configured scheme.
func splitHoldout(tagged map[changecube.TemplateID][]taggedTxn, span timeline.Span, cfg Config) (mining, validation map[changecube.TemplateID][]taggedTxn) {
	mining = make(map[changecube.TemplateID][]taggedTxn, len(tagged))
	validation = make(map[changecube.TemplateID][]taggedTxn, len(tagged))
	nWeeks := span.Len() / cfg.PeriodDays
	cutoffWeek := nWeeks - int(float64(nWeeks)*cfg.ValidationFraction)
	for template, ts := range tagged {
		for _, t := range ts {
			hold := false
			switch cfg.ValidationScheme {
			case HoldoutTail:
				hold = t.week >= cutoffWeek
			default:
				hold = holdoutHash(t.entity, t.week) < cfg.ValidationFraction
			}
			if hold {
				validation[template] = append(validation[template], t)
			} else {
				mining[template] = append(mining[template], t)
			}
		}
	}
	return mining, validation
}

// holdoutHash maps an (entity, week) pair to a deterministic value in
// [0, 1) via a splitmix-style mix.
func holdoutHash(entity changecube.EntityID, week int) float64 {
	x := uint64(uint32(entity))<<32 | uint64(uint32(week))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// validateRules measures each candidate's prediction precision on the
// validation holdout: over all (entity, week) transactions where the
// antecedent changed, the fraction where the consequent changed too.
func validateRules(candidates []Rule, validation map[changecube.TemplateID][]taggedTxn, cfg Config) []Rule {
	if len(candidates) == 0 {
		return nil
	}
	// Index candidates by (template, antecedent) for single-pass counting.
	type stats struct{ fires, hits int }
	byAnte := make(map[templateProperty][]int)
	counts := make([]stats, len(candidates))
	for i, r := range candidates {
		key := templateProperty{template: r.Template, property: r.Antecedent}
		byAnte[key] = append(byAnte[key], i)
	}
	for template, ts := range validation {
		for _, t := range ts {
			for _, item := range t.items {
				key := templateProperty{template: template, property: changecube.PropertyID(item)}
				for _, i := range byAnte[key] {
					counts[i].fires++
					if (apriori.Itemset{apriori.Item(candidates[i].Consequent)}).SubsetOf(t.items) {
						counts[i].hits++
					}
				}
			}
		}
	}
	var kept []Rule
	for i, r := range candidates {
		c := counts[i]
		r.Fires = c.fires
		if c.fires < cfg.MinValidationFires || c.fires == 0 {
			// The holdout cannot estimate this rule's precision (a rate
			// from a handful of fires is noise that survives multiple
			// testing across thousands of candidates). Fall back to the
			// mining confidence against the same cut, unless the caller
			// keeps unvalidated rules unconditionally.
			r.ValidationPrecision = -1 // unknown
			if cfg.KeepUnvalidated || r.Confidence+1e-12 >= cfg.RulePrecisionCut {
				kept = append(kept, r)
			}
			continue
		}
		r.ValidationPrecision = float64(c.hits) / float64(c.fires)
		if r.ValidationPrecision+1e-12 >= cfg.RulePrecisionCut {
			kept = append(kept, r)
		}
	}
	return kept
}

// Name implements predict.Predictor.
func (p *Predictor) Name() string { return "association rules" }

// Rules returns the validated rules in deterministic order.
func (p *Predictor) Rules() []Rule { return p.rules }

// NumRules returns the number of validated rules.
func (p *Predictor) NumRules() int { return len(p.rules) }

// Antecedents returns the antecedent properties of template's rules
// X → consequent, in ascending antecedent order. The slice is shared and
// must be treated as read-only.
func (p *Predictor) Antecedents(template changecube.TemplateID, consequent changecube.PropertyID) []changecube.PropertyID {
	return p.antecedents[templateProperty{template: template, property: consequent}]
}

// RulesPerTemplate counts the validated rules per template — the
// distribution shown in the paper's Figure 3.
func (p *Predictor) RulesPerTemplate() map[changecube.TemplateID]int {
	out := make(map[changecube.TemplateID]int)
	for _, r := range p.rules {
		out[r.Template]++
	}
	return out
}

// CoveredPages counts the distinct pages carrying at least one infobox
// whose template has a rule (the paper reports 248,865 covered pages).
func (p *Predictor) CoveredPages(cube *changecube.Cube) int {
	templates := make(map[changecube.TemplateID]bool)
	for _, r := range p.rules {
		templates[r.Template] = true
	}
	pages := make(map[changecube.PageID]bool)
	for e := 0; e < cube.NumEntities(); e++ {
		info := cube.Entity(changecube.EntityID(e))
		if templates[info.Template] {
			pages[info.Page] = true
		}
	}
	return len(pages)
}

// Predict implements predict.Predictor: the target property Y of an entity
// with template T should have changed if some rule X → Y of T has its
// antecedent X changed on the same entity within the window.
func (p *Predictor) Predict(ctx predict.Context) bool {
	target := ctx.Target()
	for _, ante := range p.Antecedents(ctx.Cube().Template(target.Entity), target.Property) {
		f := changecube.FieldKey{Entity: target.Entity, Property: ante}
		if ctx.FieldChangedIn(f, ctx.Window().Span) {
			return true
		}
	}
	return false
}

// PredictWindows implements predict.BatchPredictor: out[i] is true when
// some rule X → target of the entity's template has its antecedent X
// changed on the same entity inside window i.
func (p *Predictor) PredictWindows(b predict.Batch, out []bool) {
	for i := range out {
		out[i] = false
	}
	target := b.Target()
	for _, ante := range p.Antecedents(b.Cube().Template(target.Entity), target.Property) {
		f := changecube.FieldKey{Entity: target.Entity, Property: ante}
		for i, changed := range b.FieldChanged(f) {
			if changed {
				out[i] = true
			}
		}
	}
}

// Explain returns the antecedent properties that changed in the window for
// a positive prediction, nil otherwise.
func (p *Predictor) Explain(ctx predict.Context) []changecube.PropertyID {
	target := ctx.Target()
	var out []changecube.PropertyID
	for _, ante := range p.Antecedents(ctx.Cube().Template(target.Entity), target.Property) {
		f := changecube.FieldKey{Entity: target.Entity, Property: ante}
		if ctx.FieldChangedIn(f, ctx.Window().Span) {
			out = append(out, ante)
		}
	}
	return out
}

// ExplainRules is Explain with the rule evidence attached: every rule
// X → target of the entity's template whose antecedent X changed in the
// window, with its mining support/confidence and validation precision.
// Its non-emptiness is exactly Predict's verdict.
func (p *Predictor) ExplainRules(ctx predict.Context) []Rule {
	target := ctx.Target()
	template := ctx.Cube().Template(target.Entity)
	key := templateProperty{template: template, property: target.Property}
	var fired []Rule
	for _, r := range p.byConsequent[key] {
		f := changecube.FieldKey{Entity: target.Entity, Property: r.Antecedent}
		if ctx.FieldChangedIn(f, ctx.Window().Span) {
			fired = append(fired, r)
		}
	}
	return fired
}

// FromRules reconstructs a predictor from previously validated rules — the
// deserialization path for model persistence.
func FromRules(rules []Rule) *Predictor {
	return buildPredictor(append([]Rule(nil), rules...))
}

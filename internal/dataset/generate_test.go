package dataset

import (
	"fmt"
	"strings"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/familycorr"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/pagefamily"
	"github.com/wikistale/wikistale/internal/timeline"
)

func generate(t *testing.T, cfg Config) (*changecube.Cube, *Truth) {
	t.Helper()
	cube, truth, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return cube, truth
}

// fieldChanges is every field's chronological change list, read through
// the cube's FieldIndexes.
func fieldChanges(cube *changecube.Cube) map[changecube.FieldKey][]changecube.Change {
	out := make(map[changecube.FieldKey][]changecube.Change)
	fields, groups := cube.FieldIndexes()
	for i, key := range fields {
		l := cube.FieldLog(groups[i])
		for i := 0; i < l.Len(); i++ {
			out[key] = append(out[key], l.At(i))
		}
	}
	return out
}

func TestGenerateProducesValidCube(t *testing.T) {
	cube, truth := generate(t, Small())
	if cube.NumChanges() == 0 || cube.NumEntities() == 0 {
		t.Fatal("empty corpus")
	}
	if err := cube.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(truth.Implications) == 0 || len(truth.Clusters) == 0 {
		t.Fatal("no structure planted")
	}
	if len(truth.Forgotten) == 0 {
		t.Fatal("no forgotten updates planted")
	}
	span := cube.Span()
	if span.Start < Small().Span.Start || span.End > Small().Span.End+1 {
		t.Fatalf("changes outside configured span: %v vs %v", span, Small().Span)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := generate(t, Small())
	b, _ := generate(t, Small())
	if a.NumChanges() != b.NumChanges() || a.NumEntities() != b.NumEntities() {
		t.Fatalf("non-deterministic: %d/%d changes, %d/%d entities",
			a.NumChanges(), b.NumChanges(), a.NumEntities(), b.NumEntities())
	}
	ac, bc := a.Changes(), b.Changes()
	for i := range ac {
		if ac[i] != bc[i] {
			t.Fatalf("change %d differs: %+v vs %+v", i, ac[i], bc[i])
		}
	}
}

func TestGenerateSeedMatters(t *testing.T) {
	cfg2 := Small()
	cfg2.Seed = 99
	a, _ := generate(t, Small())
	b, _ := generate(t, cfg2)
	if a.NumChanges() == b.NumChanges() {
		// Counts could collide by chance; compare some content too.
		same := true
		ac, bc := a.Changes(), b.Changes()
		for i := 0; i < len(ac) && i < len(bc) && i < 100; i++ {
			if ac[i] != bc[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical corpora")
		}
	}
}

func TestGenerateFunnelShape(t *testing.T) {
	cube, _ := generate(t, Small())
	hs, stats, err := filter.Apply(cube, filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	if hs.Len() == 0 {
		t.Fatal("no fields survive the funnel")
	}
	surv := stats.Survival()
	// The paper retains 9.2%; the corpus must land in the same regime.
	if surv < 0.02 || surv > 0.40 {
		t.Fatalf("survival = %.3f, outside the plausible funnel regime\n%s", surv, stats)
	}
	// Creates/deletes must dominate removals, day-dedup must remove a
	// noticeable share, bot reverts a tiny one.
	var byName = map[string]filter.StageStats{}
	for _, st := range stats.Stages {
		byName[st.Name] = st
	}
	if r := byName["bot reverts"].Removed(); r > 0.01 {
		t.Errorf("bot reverts removed %.4f, want tiny", r)
	}
	if r := byName["day dedup"].Removed(); r < 0.05 || r > 0.45 {
		t.Errorf("day dedup removed %.3f, want 0.05..0.45", r)
	}
	if r := byName["create/delete"].Removed(); r < 0.25 {
		t.Errorf("create/delete removed %.3f, want > 0.25", r)
	}
}

func TestCaseStudyPlanted(t *testing.T) {
	cube, truth := generate(t, Small())
	cs := truth.CaseStudy
	if len(cs.MissedDays) != 3 {
		t.Fatalf("case study missed days = %v, want 3", cs.MissedDays)
	}
	if cs.Matches.Entity != cs.Entity || cs.TotalGoals.Entity != cs.Entity {
		t.Fatal("case study fields not on the case-study entity")
	}
	name := cube.Templates.Name(int32(cube.Template(cs.Entity)))
	if name != "infobox football league season" {
		t.Fatalf("case study template = %q", name)
	}
	// matches must actually change on each missed day while total_goals
	// does not.
	fc := fieldChanges(cube)
	matchDays := map[timeline.Day]bool{}
	for _, ch := range fc[cs.Matches] {
		matchDays[ch.Day()] = true
	}
	goalDays := map[timeline.Day]bool{}
	for _, ch := range fc[cs.TotalGoals] {
		goalDays[ch.Day()] = true
	}
	for _, d := range cs.MissedDays {
		if !matchDays[d] {
			t.Errorf("matches did not change on missed day %v", d)
		}
		if goalDays[d] {
			t.Errorf("total_goals changed on supposedly missed day %v", d)
		}
	}
}

func TestForgottenConsistentWithCube(t *testing.T) {
	cube, truth := generate(t, Small())
	fc := fieldChanges(cube)
	checked := 0
	for _, f := range truth.Forgotten {
		if checked >= 200 {
			break
		}
		checked++
		// The cause field must have changed on the forgotten day.
		found := false
		for _, ch := range fc[f.Cause] {
			if ch.Day() == f.Day && ch.Kind == changecube.Update {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("forgotten update %+v: cause did not change that day", f)
		}
	}
	if checked == 0 {
		t.Fatal("nothing to check")
	}
}

func TestImplicationsExistInSchema(t *testing.T) {
	cube, truth := generate(t, Small())
	if len(truth.Implications) < 40 {
		t.Fatalf("implications = %d, want >= 40 (big template alone has 40)", len(truth.Implications))
	}
	per := map[changecube.TemplateID]int{}
	for _, im := range truth.Implications {
		per[im.Template]++
		if im.Antecedent == im.Consequent {
			t.Fatalf("self-implication %+v", im)
		}
	}
	big, ok := cube.Templates.Lookup("infobox legislative election")
	if !ok {
		t.Fatal("big template missing")
	}
	if per[changecube.TemplateID(big)] != 80 {
		t.Fatalf("big template implications = %d, want 80", per[changecube.TemplateID(big)])
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Default()
	cfg.Span = timeline.NewSpan(0, 100)
	if _, _, err := Generate(cfg); err == nil {
		t.Error("short span accepted")
	}
	cfg = Default()
	cfg.NumTemplates = 0
	if _, _, err := Generate(cfg); err == nil {
		t.Error("zero templates accepted")
	}
	cfg = Default()
	cfg.BurstRate = 1.5
	if _, _, err := Generate(cfg); err == nil {
		t.Error("rate > 1 accepted")
	}
}

func TestNamePools(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		n := templateName(i)
		if seen[n] {
			t.Fatalf("duplicate template name %q at %d", n, i)
		}
		seen[n] = true
	}
	if propertyName(3) == propertyName(len(propertyNames)+3) {
		t.Fatal("property pool wraps without suffix")
	}
	if staticName(2) == staticName(len(staticNames)+2) {
		t.Fatal("static pool wraps without suffix")
	}
}

func TestCaseStudyTypoPlanted(t *testing.T) {
	cube, truth := generate(t, Small())
	cs := truth.CaseStudy
	if cs.TypoDay == 0 || cs.TypoValue <= 0 || cs.TypoIntended < 10000 {
		t.Fatalf("typo not planted: %+v", cs)
	}
	// The truncated value must literally be the intended value with its
	// second digit removed.
	intended := []byte(itoa64(cs.TypoIntended))
	wrong := append(append([]byte{}, intended[0]), intended[2:]...)
	if string(wrong) != itoa64(cs.TypoValue) {
		t.Fatalf("typo %d is not a digit-drop of %d", cs.TypoValue, cs.TypoIntended)
	}
	// The cube must contain the truncated value on the typo day.
	found := false
	for _, ch := range fieldChanges(cube)[cs.TotalGoals] {
		if ch.Day() == cs.TypoDay && ch.Kind == changecube.Update {
			found = true
		}
	}
	if !found {
		t.Fatal("typo change missing from the cube")
	}
	// The season's final value is the corrected true total (above the
	// typo's wrong track).
	chs := fieldChanges(cube)[cs.TotalGoals]
	last := chs[len(chs)-1]
	if last.Value == "" || last.Value[0] == 'v' {
		t.Fatalf("goals values not numeric: %q", last.Value)
	}
}

func itoa64(n int64) string {
	return fmt.Sprintf("%d", n)
}

func TestYearlySeriesStructure(t *testing.T) {
	cube, _ := generate(t, Small())
	seasonID, ok := cube.Templates.Lookup("infobox sports season")
	if !ok {
		t.Fatal("series template missing")
	}
	var seasons []changecube.EntityID
	for e := range cube.NumEntities() {
		if cube.Entity(changecube.EntityID(e)).Template == changecube.TemplateID(seasonID) {
			seasons = append(seasons, changecube.EntityID(e))
		}
	}
	if len(seasons) < 4 {
		t.Fatalf("season entities = %d, want a series", len(seasons))
	}
	// Pages follow the "YYYY-YY <league>" convention and group into
	// multi-member families.
	families := map[string][]changecube.EntityID{}
	for _, e := range seasons {
		page := cube.Pages.Name(int32(cube.Page(e)))
		if strings.Contains(page, "stub") {
			continue // stubs share the template but are not season pages
		}
		fam := pagefamily.Normalize(page)
		if fam == page {
			t.Fatalf("season page %q has no year token", page)
		}
		families[fam] = append(families[fam], e)
	}
	multi := 0
	for _, members := range families {
		if len(members) >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-year franchise families generated")
	}
}

func TestFamilyCorrFindsSeriesRules(t *testing.T) {
	cube, _ := generate(t, Small())
	hs, _, err := filter.Apply(cube, filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	p, err := familycorr.Train(hs, hs.Span(), familycorr.Default())
	if err != nil {
		t.Fatal(err)
	}
	roster, okR := cube.Properties.Lookup("roster")
	standings, okS := cube.Properties.Lookup("standings")
	if !okR || !okS {
		t.Fatal("series cluster properties missing")
	}
	found := false
	for _, r := range p.Rules() {
		pair := map[changecube.PropertyID]bool{r.A: true, r.B: true}
		if pair[changecube.PropertyID(roster)] && pair[changecube.PropertyID(standings)] {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("roster~standings family rule not recovered among %d rules", p.NumRules())
	}
}

package wikitext

import (
	"strings"
	"testing"
	"testing/quick"
)

const settlementPage = `
{{Short description|Capital of England}}
{{Infobox settlement
| name = London
| population_total = 8,799,800 <ref name="pop">{{cite web|url=http://example.org|title=Census}}</ref>
| population_as_of = 2021
| image_skyline = London.jpg <!-- update seasonally -->
| coordinates = {{coord|51|30|N|0|7|W|display=inline,title}}
| leader_name = [[Sadiq Khan]]
| leader_title = [[Mayor of London|Mayor]]
| area_km2 = 1572
}}
'''London''' is the capital city...
`

func TestParseInfoboxesSettlement(t *testing.T) {
	boxes := ParseInfoboxes(settlementPage)
	if len(boxes) != 1 {
		t.Fatalf("found %d infoboxes, want 1", len(boxes))
	}
	b := boxes[0]
	if b.Template != "infobox settlement" {
		t.Fatalf("template = %q", b.Template)
	}
	cases := map[string]string{
		"name":             "London",
		"population_as_of": "2021",
		"coordinates":      "{{coord|51|30|N|0|7|W|display=inline,title}}",
		"leader_name":      "[[Sadiq Khan]]",
		"leader_title":     "[[Mayor of London|Mayor]]",
		"area_km2":         "1572",
	}
	for k, want := range cases {
		got, ok := b.Get(k)
		if !ok {
			t.Errorf("param %q missing", k)
			continue
		}
		if got != want {
			t.Errorf("param %q = %q, want %q", k, got, want)
		}
	}
	// The ref stays in the raw value; CleanValue drops it.
	raw, _ := b.Get("population_total")
	if !strings.Contains(raw, "<ref") {
		t.Errorf("raw population_total lost its ref: %q", raw)
	}
	if got := CleanValue(raw); got != "8,799,800" {
		t.Errorf("CleanValue(population_total) = %q", got)
	}
	// Comment inside a value is stripped before parsing.
	img, _ := b.Get("image_skyline")
	if img != "London.jpg" {
		t.Errorf("image_skyline = %q", img)
	}
}

func TestParamOrderPreserved(t *testing.T) {
	boxes := ParseInfoboxes(settlementPage)
	want := []string{"name", "population_total", "population_as_of",
		"image_skyline", "coordinates", "leader_name", "leader_title", "area_km2"}
	got := boxes[0].Order
	if len(got) != len(want) {
		t.Fatalf("order = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMultipleAndNestedInfoboxes(t *testing.T) {
	page := `
{{Infobox officeholder
| name = A
| module = {{Infobox boxer
  | wins = 30
  | ko = 20
  }}
}}
Text in between.
{{Infobox album
| name = B
}}`
	boxes := ParseInfoboxes(page)
	if len(boxes) != 3 {
		t.Fatalf("found %d infoboxes, want 3 (outer, nested, second)", len(boxes))
	}
	if boxes[0].Template != "infobox officeholder" {
		t.Fatalf("first = %q", boxes[0].Template)
	}
	if boxes[1].Template != "infobox boxer" {
		t.Fatalf("second = %q", boxes[1].Template)
	}
	if ko, _ := boxes[1].Get("ko"); ko != "20" {
		t.Fatalf("nested ko = %q", ko)
	}
	// The nested template stays verbatim in the outer parameter value.
	if mod, _ := boxes[0].Get("module"); !strings.Contains(mod, "{{Infobox boxer") {
		t.Fatalf("outer module = %q", mod)
	}
	if boxes[2].Template != "infobox album" {
		t.Fatalf("third = %q", boxes[2].Template)
	}
}

func TestLegacyInfoboxNaming(t *testing.T) {
	boxes := ParseInfoboxes(`{{Taxobox infobox|regnum=Animalia}}`)
	if len(boxes) != 1 || boxes[0].Template != "taxobox infobox" {
		t.Fatalf("legacy suffix naming not recognized: %v", boxes)
	}
	if len(ParseInfoboxes(`{{cite web|url=x}}`)) != 0 {
		t.Fatal("non-infobox template extracted")
	}
}

func TestNormalizeTemplate(t *testing.T) {
	cases := map[string]string{
		"Infobox_settlement":    "infobox settlement",
		"  Infobox  Settlement": "infobox settlement",
		"INFOBOX person\n":      "infobox person",
	}
	for in, want := range cases {
		if got := NormalizeTemplate(in); got != want {
			t.Errorf("NormalizeTemplate(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPositionalParams(t *testing.T) {
	boxes := ParseInfoboxes(`{{Infobox x|first|second|named=v|third}}`)
	if len(boxes) != 1 {
		t.Fatal("no infobox")
	}
	b := boxes[0]
	for k, want := range map[string]string{"1": "first", "2": "second", "3": "third", "named": "v"} {
		if got := b.Params[k]; got != want {
			t.Errorf("param %q = %q, want %q", k, got, want)
		}
	}
}

func TestDuplicateParamLastWins(t *testing.T) {
	boxes := ParseInfoboxes(`{{Infobox x|a=1|a=2}}`)
	if got := boxes[0].Params["a"]; got != "2" {
		t.Fatalf("duplicate param = %q, want 2", got)
	}
	if len(boxes[0].Order) != 1 {
		t.Fatalf("order records duplicate: %v", boxes[0].Order)
	}
}

func TestPipeInsideRefNotASeparator(t *testing.T) {
	boxes := ParseInfoboxes(`{{Infobox x|a=1<ref>{{cite|u}}</ref>|b=2<ref name="n"/>|c=3}}`)
	b := boxes[0]
	if len(b.Order) != 3 {
		t.Fatalf("params = %v", b.Order)
	}
	if v := b.Params["b"]; v != `2<ref name="n"/>` {
		t.Fatalf("b = %q", v)
	}
}

func TestEqualsInsideLinkOrTemplateNotAKeySeparator(t *testing.T) {
	boxes := ParseInfoboxes(`{{Infobox x|[[a=b]]|k={{t|x=y}}}}`)
	b := boxes[0]
	if v := b.Params["1"]; v != "[[a=b]]" {
		t.Fatalf("positional = %q", v)
	}
	if v := b.Params["k"]; v != "{{t|x=y}}" {
		t.Fatalf("k = %q", v)
	}
}

func TestStripComments(t *testing.T) {
	cases := map[string]string{
		"a<!-- hidden -->b":        "ab",
		"a<!-- unterminated":       "a",
		"plain":                    "plain",
		"<!--x--><!--y-->z":        "z",
		"a<!-- has -- dashes -->b": "ab",
	}
	for in, want := range cases {
		if got := StripComments(in); got != want {
			t.Errorf("StripComments(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCleanValue(t *testing.T) {
	cases := map[string]string{
		"[[Mayor of London|Mayor]]":        "Mayor",
		"[[Sadiq Khan]]":                   "Sadiq Khan",
		"'''bold''' and ''italic''":        "bold and italic",
		"  spaced \n out  ":                "spaced out",
		"x<ref>noise</ref>y":               "xy",
		"v<!--c-->w":                       "vw",
		"[[File:A.jpg|thumb|[[B]]|cap]]":   "cap",
		"{{convert|100|km}}":               "{{convert|100|km}}",
		"unclosed [[link":                  "unclosed [[link",
		"a<nowiki>|ignored|</nowiki>b":     "ab",
		"8,799,800<ref name=\"pop\"/> now": "8,799,800 now",
	}
	for in, want := range cases {
		if got := CleanValue(in); got != want {
			t.Errorf("CleanValue(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseTemplatesPositionsAndMalformed(t *testing.T) {
	text := "a {{x|1}} b {{y {{z}} }} c {{unclosed"
	ts := ParseTemplates(text)
	if len(ts) != 3 {
		t.Fatalf("found %d templates, want 3", len(ts))
	}
	if ts[0].Name != "x" {
		t.Fatalf("first template name = %q, want x", ts[0].Name)
	}
	// The outer template has no top-level pipe, so its name spans the
	// nested invocation verbatim.
	if ts[1].Name != "y {{z}}" {
		t.Fatalf("outer template name = %q, want %q", ts[1].Name, "y {{z}}")
	}
	if ts[2].Name != "z" {
		t.Fatalf("nested template name = %q, want z", ts[2].Name)
	}
	if ts[0].Start != 2 || text[ts[0].Start:ts[0].End] != "{{x|1}}" {
		t.Fatalf("span of first template wrong: %d..%d", ts[0].Start, ts[0].End)
	}
	// Outer template must come before its nested one after reordering.
	if !(ts[1].Start < ts[2].Start && ts[1].End > ts[2].End) {
		t.Fatalf("nesting order wrong: %+v", ts[1:])
	}
}

// TestParserNeverPanics feeds random byte soup to the full pipeline.
func TestParserNeverPanics(t *testing.T) {
	f := func(chunks []uint16) bool {
		pieces := []string{"{{", "}}", "[[", "]]", "|", "=", "<ref>", "</ref>",
			"<!--", "-->", "Infobox ", "a", " ", "\n", "<nowiki>", "</nowiki>", "<ref/>"}
		var b strings.Builder
		for _, c := range chunks {
			b.WriteString(pieces[int(c)%len(pieces)])
		}
		boxes := ParseInfoboxes(b.String())
		for _, box := range boxes {
			if box.Params == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

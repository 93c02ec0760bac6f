package staleserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
)

// TestSwapDeterministic: compiling the same detector twice must yield
// byte-identical epochs — no map iteration order may leak into the
// compiled index. Nondeterministic swaps made restarts serve different
// entity tie-breaks for history-less consequents.
func TestSwapDeterministic(t *testing.T) {
	det := trainSeed(t, 401)
	s1, s2 := newServer(det), newServer(det)
	f1, f2 := s1.epoch().fields, s2.epoch().fields
	if !reflect.DeepEqual(f1.entries, f2.entries) {
		t.Fatal("two swaps of one detector compiled different entry tables")
	}
	if !bytes.Equal(f1.arena, f2.arena) {
		t.Fatal("two swaps of one detector compiled different arenas")
	}
}

// TestHistorylessConsequentsDeterministic: the compiled extra-field list
// must be repeatable, sorted, and contain only fields without recorded
// history.
func TestHistorylessConsequentsDeterministic(t *testing.T) {
	det := trainSeed(t, 402)
	a, b := det.HistorylessConsequents(), det.HistorylessConsequents()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("HistorylessConsequents is not repeatable")
	}
	for i, f := range a {
		if _, known := det.Histories().Get(f); known {
			t.Fatalf("consequent %+v has a recorded history", f)
		}
		if i > 0 {
			prev := a[i-1]
			if prev.Entity > f.Entity || (prev.Entity == f.Entity && prev.Property >= f.Property) {
				t.Fatalf("consequents unsorted at %d: %+v then %+v", i, prev, f)
			}
		}
	}
}

// TestCompileFieldsEmptyHistory: a history with no recorded days must
// compile into a valid body without last_changed — not panic at request
// time indexing Days[len(Days)-1].
func TestCompileFieldsEmptyHistory(t *testing.T) {
	cube := changecube.New()
	entity := cube.AddEntityNamed("infobox handball", `Page "A" \ b`)
	prop := changecube.PropertyID(cube.Properties.Intern("total_goals"))
	field := changecube.FieldKey{Entity: entity, Property: prop}

	cf := compileFields([]changecube.History{changecube.NewHistory(field, nil)}, nil, cube)
	if len(cf.entries) != 1 {
		t.Fatalf("compiled %d entries, want 1", len(cf.entries))
	}
	fe := &cf.entries[0]
	if !fe.hasHistory || fe.entity != entity {
		t.Fatalf("entry = %+v", fe)
	}

	var fresh FieldStatus
	if err := json.Unmarshal(cf.bytes(fe.fresh), &fresh); err != nil {
		t.Fatalf("fresh body invalid JSON: %v\n%s", err, cf.bytes(fe.fresh))
	}
	if fresh.Stale || fresh.LastChanged != "" || fresh.Page != `Page "A" \ b` || fresh.Property != "total_goals" {
		t.Fatalf("fresh body = %+v", fresh)
	}

	// The stale splice: prefix + escaped explanation + suffix must decode
	// too, with the explanation surviving escaping round-trip.
	expl := "matches changed\nand \"this\" value \\ has not"
	body := append([]byte{}, cf.bytes(fe.stalePrefix)...)
	body = appendJSONString(body, expl)
	body = append(body, cf.bytes(fe.staleSuffix)...)
	var stale FieldStatus
	if err := json.Unmarshal(body, &stale); err != nil {
		t.Fatalf("stale body invalid JSON: %v\n%s", err, body)
	}
	if !stale.Stale || stale.Explanation != expl || stale.LastChanged != "" {
		t.Fatalf("stale body = %+v", stale)
	}
}

// TestFieldEmptyHistoryHTTP is the regression test at the API surface: a
// served field whose history carries no days must answer 200 without a
// last_changed key. The epoch is crafted by hand because the training
// pipeline never produces an empty history — the serving layer must
// still survive one.
func TestFieldEmptyHistoryHTTP(t *testing.T) {
	s := NewLive()
	s.Swap(trainSeed(t, 403))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ep := s.epoch()
	h0 := ep.det.Histories().Histories()[0]
	crafted := changecube.NewHistory(h0.Field, nil) // no days
	s.ep.Store(&epoch{
		seq:    ep.seq + 1,
		det:    ep.det,
		cube:   ep.cube,
		fields: compileFields([]changecube.History{crafted}, nil, ep.cube),
		cache:  newAlertCache(alertCacheShardCap),
	})

	page := ep.cube.Pages.Name(int32(ep.cube.Page(h0.Field.Entity)))
	property := ep.cube.Properties.Name(int32(h0.Field.Property))
	// A day long before the corpus: the field is fresh, and the body must
	// simply omit last_changed rather than crash or fabricate a day.
	url := fmt.Sprintf("%s/v1/field?page=%s&property=%s&asof=2005-01-01&window=1",
		srv.URL, queryEscape(page), queryEscape(property))
	var raw map[string]any
	if code := getJSON(t, url, &raw); code != 200 {
		t.Fatalf("status = %d, body %v", code, raw)
	}
	if _, ok := raw["last_changed"]; ok {
		t.Fatalf("empty-history field reported last_changed: %v", raw)
	}
	if raw["page"] != page || raw["property"] != property {
		t.Fatalf("body = %v", raw)
	}
}

// TestAppendJSONString: the arena escaper must agree with encoding/json
// for everything but HTML escaping.
func TestAppendJSONString(t *testing.T) {
	cases := []string{
		"",
		"plain",
		`quotes " and \ slashes`,
		"control \n\r\t chars",
		string([]byte{0x01, 0x1f}) + " low bytes",
		"unicode — ⚠ déjà",
	}
	for _, in := range cases {
		got := appendJSONString(nil, in)
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Errorf("%q: invalid JSON %s: %v", in, got, err)
			continue
		}
		if back != in {
			t.Errorf("%q round-tripped to %q", in, back)
		}
	}
}

// TestQueryParam: the raw-query extractor must agree with url.Values on
// the shapes the API serves.
func TestQueryParam(t *testing.T) {
	cases := []struct {
		raw, key string
		want     string
		ok       bool
	}{
		{"page=A&window=3", "page", "A", true},
		{"page=A&window=3", "window", "3", true},
		{"page=A&window=3", "limit", "", false},
		{"page=2018-19%20Handball-Bundesliga", "page", "2018-19 Handball-Bundesliga", true},
		{"page=a+b", "page", "a b", true},
		{"page", "page", "", true},
		{"page=", "page", "", true},
		{"pages=A", "page", "", false},
		{"p=1&page=B", "page", "B", true},
		{"page=%zz", "page", "", false},
		{"", "page", "", false},
	}
	for _, c := range cases {
		got, ok := queryParam(c.raw, c.key)
		if got != c.want || ok != c.ok {
			t.Errorf("queryParam(%q, %q) = (%q, %v), want (%q, %v)", c.raw, c.key, got, ok, c.want, c.ok)
		}
	}
}

// TestAlertSetFirstAlertWins: when two alerts land on one (page,
// property) key, find must return the first in detector order —
// matching the linear scan the index replaced.
func TestAlertSetFirstAlertWins(t *testing.T) {
	initShared(t)
	ep := sharedServer.epoch()
	asOf := ep.det.Histories().Span().End
	as := newAlertSet(ep.cube, ep.det.DetectStale(asOf, 30))
	if len(as.alerts) == 0 {
		t.Skip("no alerts at span end")
	}
	seen := make(map[fieldKey]int32)
	for i, a := range as.alerts {
		k := packKey(ep.cube.Page(a.Field.Entity), a.Field.Property)
		if _, dup := seen[k]; !dup {
			seen[k] = int32(i)
		}
	}
	for k, want := range seen {
		got, ok := as.find(k)
		if !ok || got != want {
			t.Fatalf("find(%#x) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
	// And a key with no alert must miss.
	if _, ok := as.find(packKey(changecube.PageID(1<<30), changecube.PropertyID(1))); ok {
		t.Fatal("find hit an absent key")
	}
}

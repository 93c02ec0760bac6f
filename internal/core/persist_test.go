package core

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/eval"
)

func TestSaveLoadModelRoundTrip(t *testing.T) {
	det, _ := detector(t)
	loaded := reload(t, det)
	if loaded.FieldCorrelations().NumRules() != det.FieldCorrelations().NumRules() {
		t.Fatalf("correlation rules %d != %d",
			loaded.FieldCorrelations().NumRules(), det.FieldCorrelations().NumRules())
	}
	if loaded.AssociationRules().NumRules() != det.AssociationRules().NumRules() {
		t.Fatal("association rules differ")
	}
	if loaded.Seasonal().NumCovered() != det.Seasonal().NumCovered() {
		t.Fatal("seasonal anchors differ")
	}
	if loaded.FamilyCorrelations().NumRules() != det.FamilyCorrelations().NumRules() {
		t.Fatal("family rules differ")
	}
	if loaded.Splits() != det.Splits() {
		t.Fatal("splits differ")
	}
}

// TestLoadedModelPredictsIdentically is the real contract: the loaded
// detector must produce byte-for-byte the same evaluation as the trained
// one.
func TestLoadedModelPredictsIdentically(t *testing.T) {
	det, _ := detector(t)
	loaded := reload(t, det)
	opts := eval.Options{Sizes: []int{7, 30}}
	want, err := det.EvaluateTest(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.EvaluateTest(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want.Predictors {
		for _, size := range []int{7, 30} {
			if want.BySize[name][size] != got.BySize[name][size] {
				t.Fatalf("%s at %dd: %+v != %+v", name, size,
					want.BySize[name][size], got.BySize[name][size])
			}
		}
	}
}

func TestMarshalModelBytesRoundTrip(t *testing.T) {
	det, _ := detector(t)
	data, err := det.MarshalModel()
	if err != nil {
		t.Fatalf("MarshalModel: %v", err)
	}
	loaded, err := LoadModelBytes(det.Histories(), det.FilterStats(), det.cfg, data)
	if err != nil {
		t.Fatalf("LoadModelBytes: %v", err)
	}
	// Marshal is deterministic: the reloaded detector re-marshals to the
	// same bytes — the property the epoch store's bit-identity rests on.
	again, err := loaded.MarshalModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-marshaled model differs from original bytes")
	}
	asOf := det.Histories().Span().End
	a, b := det.DetectStale(asOf, 7), loaded.DetectStale(asOf, 7)
	if len(a) != len(b) {
		t.Fatalf("alerts %d != %d", len(a), len(b))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("alerts differ: %+v vs %+v", a, b)
	}
	if _, err := LoadModelBytes(det.Histories(), det.FilterStats(), det.cfg,
		[]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// reload round-trips det through MarshalModel and LoadModelBytes.
func reload(t *testing.T, det *Detector) *Detector {
	t.Helper()
	data, err := det.MarshalModel()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelBytes(det.Histories(), det.FilterStats(), det.cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestLoadedModelSupportsIngest(t *testing.T) {
	det, truth := detector(t)
	loaded := reload(t, det)
	cs := truth.CaseStudy
	end := loaded.Histories().Span().End
	batch := []changecube.Change{{
		Time:     (end + 2).Unix(),
		Entity:   cs.Matches.Entity,
		Property: cs.Matches.Property,
		Value:    "999",
		Kind:     changecube.Update,
	}}
	if err := loaded.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range loaded.DetectStale(end+3, 3) {
		if a.Field == cs.TotalGoals {
			found = true
		}
	}
	if !found {
		t.Fatal("ingest into a loaded model did not drive detection")
	}
}

// TestHistorylessConsequentsCached: the list and the evidence index
// computed when a detector is built must equal a fresh computation after
// training, after a MarshalModel → LoadModelBytes round trip, and after an
// Ingest gives one of the listed fields its first history.
func TestHistorylessConsequentsCached(t *testing.T) {
	det, _ := detector(t)
	check := func(stage string, d *Detector) {
		t.Helper()
		if got, want := d.HistorylessConsequents(), historylessReference(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached %d fields, fresh %d; lists differ", stage, len(got), len(want))
		}
		if !reflect.DeepEqual(d.evidence, compileEvidence(d.histories, d.fieldCorr, d.assocRules)) {
			t.Fatalf("%s: cached evidence index differs from a fresh build", stage)
		}
	}
	check("trained", det)
	if len(det.HistorylessConsequents()) == 0 {
		t.Fatal("corpus has no history-less consequents; the test checks nothing")
	}
	loaded := reload(t, det)
	check("loaded", loaded)

	field := loaded.HistorylessConsequents()[0]
	end := loaded.Histories().Span().End
	if err := loaded.Ingest([]changecube.Change{{
		Time:     (end + 1).Unix(),
		Entity:   field.Entity,
		Property: field.Property,
		Value:    "1",
		Kind:     changecube.Update,
	}}); err != nil {
		t.Fatal(err)
	}
	check("ingested", loaded)
	for _, f := range loaded.HistorylessConsequents() {
		if f == field {
			t.Fatalf("%v has a history after Ingest but is still listed", field)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	det, _ := detector(t)
	if _, err := LoadModelBytes(det.Histories(), det.FilterStats(), det.cfg,
		[]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadModelBytes(det.Histories(), det.FilterStats(), det.cfg,
		[]byte(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	// A model whose rules reference entities this cube does not have.
	if _, err := LoadModelBytes(det.Histories(), det.FilterStats(), det.cfg, []byte(
		`{"version":1,"correlation_rules":[{"A":{"Entity":99999999,"Property":0},"B":{"Entity":0,"Property":0},"Distance":0}]}`)); err == nil {
		t.Fatal("model for a different cube accepted")
	}
}
